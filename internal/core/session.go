package core

import (
	"fmt"
	"math"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/diffuse"
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

	// links holds the session's state per link, by rule ID (see link).
	links map[string]*sessionLink

	// Query-mode state.
	query *cq.Query // non-nil at the origin of a query session
	// overlay is the session's staging area: the tuples it derived that the
	// LDB does not hold. Rule evaluation reads snapshot ∪ overlay. A query
	// session keeps them to its end and never commits; an update or scoped
	// session is a query session that flushes — Node.commitStaged moves them
	// into the LDB before any acknowledgement or termination verdict leaves,
	// and the overlay starts over.
	overlay *relation.Set
	// answerKeys dedups streamed answers at a query origin.
	answerKeys map[string]bool
	certain    bool // drop answers containing nulls

	// pinned is the storage snapshot the session currently evaluates over.
	// It is re-pinned by sessionView whenever the storage LSN has moved
	// past it — in particular after the session's staged tuples were
	// flushed into the LDB — so evaluation keeps observing the session's
	// own writes, first in the overlay, then in the snapshot. finalize
	// releases it.
	pinned *storage.Snapshot

	// ds is the session's termination-detector state.
	ds diffuse.Session

	// Stats under construction.
	rep msg.UpdateReport

	done bool
}

// sessionLink is a session's state for one link, either side of it.
type sessionLink struct {
	// evaluated is set once the initial full evaluation of the incoming
	// link has run in this session.
	evaluated bool
	// sent holds the frontier-binding keys already shipped on the incoming
	// link (the paper's "we delete from Ri those tuples which have been
	// already sent").
	sent map[string]bool
	// seq numbers the outgoing data batches of the link.
	seq int
	// hinted is set once the lazy invalidation hint of a pull-policy link
	// has been flooded (one hint per link per session).
	hinted bool
	// read is, when tracked, the snapshot LSN every evaluation of an
	// incrementally exported incoming link read since the session last
	// committed, or mixedReads once the link may no longer follow the
	// session's commits (see Node.followCommit).
	read    uint64
	tracked bool
	// requester is the importer that requested the incoming link in a query
	// or scoped session ("" while inactive; updates push to every incoming
	// link's target).
	requester string
	// requested is set once a query or scoped session requested the
	// outgoing link.
	requested bool
	// applier is the session's fork of an existential rule's applier, so
	// its chase memo is released with the session (see sessionApplier).
	applier *chase.Applier
	// extra is a rule learned from a query request, session-locally (it
	// belongs to the requester's topology, not ours).
	extra *cq.Rule
}

// link returns the session's record of a link, creating it.
func (s *session) link(id string) *sessionLink {
	l := s.links[id]
	if l == nil {
		l = &sessionLink{}
		s.links[id] = l
	}
	return l
}

func (n *Node) newSession(sid string, kind msg.Kind, origin string) *session {
	s := &session{
		sid:    sid,
		kind:   kind,
		origin: origin,
		links:  make(map[string]*sessionLink),
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
// handlers only acknowledge; it is not kept past its flush. Within a burst
// (DeferAcks) every stale message of a session shares the stub the first one
// got, and so its detector state: the first sender is the parent, each later
// one an owed ack.
func (n *Node) getSession(sid string, kind msg.Kind, origin string) *session {
	if s, ok := n.sessions[sid]; ok {
		return s
	}
	if s, ok := n.dirty[sid]; ok {
		return s // finished during this burst
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
	if l := s.links[id]; l != nil && l.tracked && (!ok || l.read != lsn) {
		l.read = mixedReads
	}
}

// track starts tracking what an incrementally exported link's evaluations
// read, at the snapshot LSN of its export.
func (s *session) track(id string, lsn uint64) {
	l := s.link(id)
	l.read, l.tracked = lsn, true
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
// session flushes — the LDB commit; keys, when not nil, holds those keys
// already (keys[i] == ts[i].Key(), as a decoded message carries them). The
// tuples are retained as they are (chase facts and received bindings are
// never mutated). A batch holding a tuple the relation's schema does not
// admit is refused whole: staged tuples are derived from and shipped on
// before the LDB sees them, so its admission check runs here.
func (v view) stage(rel string, ts []relation.Tuple, keys []string) ([]relation.Tuple, error) {
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
	for i, t := range ts {
		var key string
		if keys != nil {
			key = keys[i]
		} else {
			key = t.Key()
		}
		if v.snap.HasKey(rel, key) {
			continue
		}
		if v.overlay.Insert(rel, key, t) {
			fresh = append(fresh, t)
		}
	}
	return fresh, nil
}
