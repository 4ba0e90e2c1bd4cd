package core

import (
	"fmt"
	"math"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// session is this node's state for one global update or distributed query.
type session struct {
	sid    string
	kind   msg.Kind
	origin string

	// joined is set once this node has performed its join actions
	// (initial exports and flood forwarding).
	joined bool
	// flooded is set once the session has been propagated to the
	// acquaintances (duplicate suppression of the update flood).
	flooded bool

	// evaluated marks incoming links whose initial full evaluation has
	// run in this session.
	evaluated map[string]bool
	// sent holds, per incoming link, the frontier-binding keys already
	// shipped (the paper's "we delete from Ri those tuples which have
	// been already sent").
	sent map[string]map[string]bool
	// seqOut numbers outgoing data batches per rule.
	seqOut map[string]int
	// hinted marks pull-policy links whose lazy invalidation hint has been
	// flooded in this session (one hint per link per session).
	hinted map[string]bool
	// reads maps each incoming link the session exported incrementally to
	// the snapshot LSN every evaluation of the link read since the session
	// last committed, or to mixedReads once the link may no longer follow
	// the session's commits (see Node.followCommit).
	reads map[string]uint64

	// Query-mode state.
	query *cq.Query // non-nil at the origin of a query session
	// overlay is the session's staging area: the tuples it derived that the
	// LDB does not hold. Rule evaluation reads snapshot ∪ overlay. A query
	// session keeps them to its end and never commits; an update or scoped
	// session is a query session that flushes — Node.commitStaged moves them
	// into the LDB before any acknowledgement or termination verdict leaves,
	// and the overlay starts over.
	overlay *relation.Set
	// appliers scopes the chase memo of rules with existential variables to
	// the session (see sessionApplier).
	appliers map[string]*chase.Applier
	// activeIncoming maps incoming rule IDs to the requesting importer,
	// for query sessions (updates push to every incoming link's target).
	activeIncoming map[string]string
	// requestedOut marks outgoing links this node has already requested
	// in a query session.
	requestedOut map[string]bool
	// answerKeys dedups streamed answers at a query origin.
	answerKeys map[string]bool
	certain    bool // drop answers containing nulls
	// extra holds rules learned from query requests, session-locally (they
	// belong to the requester's topology, not ours).
	extra map[string]*cq.Rule

	// pinned is the storage snapshot the session currently evaluates over.
	// It is re-pinned by sessionView whenever the storage LSN has moved
	// past it — in particular after the session's staged tuples were
	// flushed into the LDB — so evaluation keeps observing the session's
	// own writes, first in the overlay, then in the snapshot. finalize
	// releases it.
	pinned *storage.Snapshot

	// Stats under construction.
	rep msg.UpdateReport

	done bool
}

func (n *Node) newSession(sid string, kind msg.Kind, origin string) *session {
	s := &session{
		sid:            sid,
		kind:           kind,
		origin:         origin,
		evaluated:      make(map[string]bool),
		reads:          make(map[string]uint64),
		sent:           make(map[string]map[string]bool),
		seqOut:         make(map[string]int),
		activeIncoming: make(map[string]string),
		requestedOut:   make(map[string]bool),
		rep: msg.UpdateReport{
			SID:           sid,
			Kind:          kind,
			Origin:        origin,
			StartUnixNano: n.cfg.Clock(),
			MsgsPerRule:   make(map[string]int),
			BytesPerRule:  make(map[string]int),
			TuplesPerRule: make(map[string]int),
		},
		overlay: relation.NewSet(),
	}
	n.sessions[sid] = s
	return s
}

// forget drops a finished session from the session table. Its report is in
// the bounded report ring already; what stays is one entry of n.finished —
// the SID, by which stale messages of the session are recognised, and the
// peers it shipped data to, which a late write-off must still distrust
// (CompensateLost). Everything else — overlay, pinned snapshot, chase memos,
// every per-tuple and per-link map — goes with the session object.
func (n *Node) forget(s *session) {
	delete(n.sessions, s.sid)
	n.finished[s.sid] = s.rep.SentTo
}

// known reports whether this node has taken part in the session, running or
// finished.
func (n *Node) known(sid string) bool {
	_, running := n.sessions[sid]
	_, finished := n.finished[sid]
	return running || finished
}

// getSession returns the session, creating it if the node has not seen it.
// A message of a finished session gets a stub marked done, which the
// handlers only acknowledge; it is not kept.
func (n *Node) getSession(sid string, kind msg.Kind, origin string) *session {
	if s, ok := n.sessions[sid]; ok {
		return s
	}
	if _, ok := n.finished[sid]; ok {
		return &session{sid: sid, kind: kind, origin: origin, done: true}
	}
	return n.newSession(sid, kind, origin)
}

// mixedReads marks a link whose evaluations read different snapshots, or
// did not ship every binding, since the session last committed.
const mixedReads = math.MaxUint64

// noteRead records an evaluation of a tracked link over the snapshot at lsn;
// ok is false when it did not ship every binding (a failed evaluation, or a
// lazy hint in its place).
func (s *session) noteRead(id string, lsn uint64, ok bool) {
	if read, tracked := s.reads[id]; tracked && (!ok || read != lsn) {
		s.reads[id] = mixedReads
	}
}

// sentSet returns the sent cache for one incoming link.
func (s *session) sentSet(ruleID string) map[string]bool {
	m := s.sent[ruleID]
	if m == nil {
		m = make(map[string]bool)
		s.sent[ruleID] = m
	}
	return m
}

// noteQueried records an acquaintance this node requested data from.
func (s *session) noteQueried(node string) {
	for _, q := range s.rep.Queried {
		if q == node {
			return
		}
	}
	s.rep.Queried = append(s.rep.Queried, node)
}

// noteSentTo records a node this node shipped results to.
func (s *session) noteSentTo(node string) {
	for _, q := range s.rep.SentTo {
		if q == node {
			return
		}
	}
	s.rep.SentTo = append(s.rep.SentTo, node)
}

// view is what rule evaluation reads: the LDB, as a pinned immutable
// snapshot, plus the session overlay. Evaluation runs without storage locks,
// and constant and range pushdown and index-probe joins reach the snapshot's
// lazy secondary views (cq.EqScanner, cq.RangeScanner). Writes go to the
// overlay, never to the snapshot; Node.commitStaged moves them into the
// wrapper.
//
// The overlay is a relation.Set: ordered (scans stay in key order, so
// exports are deterministic) and indexed (ScanRange walks it). Overlay tuples
// that meanwhile appeared in the snapshot are shadowed — skipped, since the
// snapshot scan already delivered them; the check reuses the key the overlay
// stores, so it encodes nothing.
type view struct {
	snap    *storage.Snapshot
	overlay *relation.Set // nil once the session is finished
}

// sessionView returns the session's evaluation view, (re)pinning its
// snapshot first: a fresh snapshot is taken whenever the session has none
// yet or the storage has committed past the pinned LSN — which is exactly
// what happens when the session's staged tuples are flushed into the LDB, so
// the next evaluation finds them in the snapshot instead of the overlay.
func (n *Node) sessionView(s *session) view {
	if s.pinned == nil || s.pinned.LSN() != n.cfg.Wrapper.LSN() {
		s.pinned = n.cfg.Wrapper.ReadSnapshot()
	}
	return view{snap: s.pinned, overlay: s.overlay}
}

// Scan implements cq.Source over snapshot ∪ overlay.
func (v view) Scan(rel string, fn func(relation.Tuple) bool) {
	stopped := false
	v.snap.Scan(rel, func(t relation.Tuple) bool {
		stopped = !fn(t)
		return !stopped
	})
	if stopped || v.overlay == nil {
		return
	}
	v.overlay.ScanKeys(rel, func(key string, t relation.Tuple) bool {
		return v.snap.HasKey(rel, key) || fn(t)
	})
}

// ScanRange implements cq.RangeScanner over snapshot ∪ overlay: each side
// walks its index over the position (the snapshot's lazy secondary view, the
// overlay's secondary tree), the overlay shadowed as in Scan.
func (v view) ScanRange(rel string, pos int, r relation.Range, fn func(relation.Tuple) bool) {
	stopped := false
	v.snap.ScanRange(rel, pos, r, func(t relation.Tuple) bool {
		stopped = !fn(t)
		return !stopped
	})
	if stopped || v.overlay == nil {
		return
	}
	v.overlay.ScanRangeKeys(rel, pos, r, func(key string, t relation.Tuple) bool {
		return v.snap.HasKey(rel, key) || fn(t)
	})
}

// ScanEq implements cq.EqScanner: the point range of val.
func (v view) ScanEq(rel string, pos int, val relation.Value, fn func(relation.Tuple) bool) {
	v.ScanRange(rel, pos, relation.Point(val), fn)
}

// stage sinks a batch into the session overlay and returns the genuinely new
// tuples: those neither in the snapshot nor staged before. Each tuple's key
// is encoded once, for the presence check, the overlay and — when the
// session flushes — the LDB commit, and the tuples are retained as they are
// (chase facts are never mutated). A batch holding a tuple the relation's
// schema does not admit is refused whole: staged tuples are derived from and
// shipped on before the LDB sees them, so its admission check runs here.
func (v view) stage(rel string, ts []relation.Tuple) ([]relation.Tuple, error) {
	def := v.snap.Rel(rel)
	if def == nil {
		return nil, fmt.Errorf("core: unknown relation %q", rel)
	}
	for _, t := range ts {
		if err := def.Validate(t); err != nil {
			return nil, err
		}
	}
	fresh := make([]relation.Tuple, 0, len(ts))
	for _, t := range ts {
		key := t.Key()
		if v.snap.HasKey(rel, key) {
			continue
		}
		if v.overlay.Insert(rel, key, t) {
			fresh = append(fresh, t)
		}
	}
	return fresh, nil
}
