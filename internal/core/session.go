package core

import (
	"fmt"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
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

	// pinned is the storage snapshot the session currently evaluates over
	// (nil when the wrapper has no snapshot capability or session snapshots
	// are disabled). It is re-pinned by sessionView whenever the storage
	// LSN has moved past it — in particular after the session's staged
	// tuples were flushed into the LDB — so evaluation keeps observing the
	// session's own writes, first in the overlay, then in the snapshot.
	// finalize releases it.
	pinned ReadView

	// Link-state protocol (reporting; see close.go).
	outClosed map[string]bool // outgoing links closed (exporter notified us)
	inClosed  map[string]bool // incoming links we have closed

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
		sent:           make(map[string]map[string]bool),
		seqOut:         make(map[string]int),
		activeIncoming: make(map[string]string),
		requestedOut:   make(map[string]bool),
		outClosed:      make(map[string]bool),
		inClosed:       make(map[string]bool),
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

// release drops everything a finished session no longer needs — the overlay,
// the pinned snapshot, the chase memos, every per-tuple and per-link map — by
// resetting the session to what must stay: the identity, the done flag
// (stale messages of the session are recognised by it and return before
// touching anything else) and the report. That is O(1) per finished session.
func (s *session) release() {
	*s = session{sid: s.sid, kind: s.kind, origin: s.origin, rep: s.rep, done: true}
}

// getSession returns (creating if needed) the session, reporting whether it
// already existed.
func (n *Node) getSession(sid string, kind msg.Kind, origin string) (*session, bool) {
	if s, ok := n.sessions[sid]; ok {
		return s, true
	}
	return n.newSession(sid, kind, origin), false
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

// view is what rule evaluation reads: the LDB plus the session overlay.
// When the wrapper can take snapshots (and session snapshots are enabled),
// the LDB half is a pinned immutable snapshot instead of the live wrapper:
// evaluation then runs without storage locks, the CQ evaluator's hash-join
// builds fan out per shard (the view forwards cq.ShardedSource), and
// constant pushdown and index-probe joins reach the snapshot's lazy
// secondary views (cq.EqScanner). Writes go to the overlay, never to the
// snapshot; Node.commitStaged moves them into the live wrapper.
//
// The overlay is a relation.Set: ordered (scans stay in key order, so
// exports are deterministic) and indexed (ScanEq probes it). Overlay tuples
// that meanwhile appeared in the LDB half are shadowed — skipped, since the
// base scan already delivered them; the check reuses the key the overlay
// stores, so it encodes nothing.
type view struct {
	base    Wrapper
	snap    ReadView      // nil: evaluation falls back to the live wrapper
	overlay *relation.Set // nil once the session is finished
}

// sessionView returns the session's evaluation view, (re)pinning its
// snapshot first: a fresh snapshot is taken whenever the session has none
// yet or the storage has committed past the pinned LSN — which is exactly
// what happens when the session's staged tuples are flushed into the LDB, so
// the next evaluation finds them in the snapshot instead of the overlay.
func (n *Node) sessionView(s *session) view {
	v := view{base: n.cfg.Wrapper, overlay: s.overlay}
	if n.snapshotter != nil && n.tracker != nil && !s.done {
		if s.pinned == nil || s.pinned.LSN() != n.tracker.LSN() {
			s.pinned = n.snapshotter.ReadSnapshot()
		}
		v.snap = s.pinned
	}
	return v
}

// keyedHas is optionally implemented by wrappers and read views that test
// presence by a tuple's already-encoded key (storage snapshots and both
// wrappers do), so a caller holding the key does not encode it again.
type keyedHas interface {
	HasKey(rel, key string) bool
}

// ldb returns the LDB half of the view: the pinned snapshot, or the live
// wrapper without one. All reads of one evaluation go through it, so they
// see one consistent state.
func (v view) ldb() interface {
	cq.Source
	Has(rel string, t relation.Tuple) bool
} {
	if v.snap != nil {
		return v.snap
	}
	return v.base
}

// baseHas reports presence of tuple t, encoded as key, in the LDB half.
func (v view) baseHas(rel, key string, t relation.Tuple) bool {
	b := v.ldb()
	if kh, ok := b.(keyedHas); ok {
		return kh.HasKey(rel, key)
	}
	return b.Has(rel, t)
}

// Scan implements cq.Source over base ∪ overlay.
func (v view) Scan(rel string, fn func(relation.Tuple) bool) {
	stopped := false
	v.ldb().Scan(rel, func(t relation.Tuple) bool {
		stopped = !fn(t)
		return !stopped
	})
	if stopped || v.overlay == nil {
		return
	}
	v.overlay.ScanKeys(rel, func(key string, t relation.Tuple) bool {
		return v.baseHas(rel, key, t) || fn(t)
	})
}

// ScanEq implements cq.EqScanner over base ∪ overlay: the snapshot probes
// its lazy secondary view, the live wrapper its own index, the overlay its
// secondary tree. An LDB half that cannot probe is filtered from a full
// scan.
func (v view) ScanEq(rel string, pos int, val relation.Value, fn func(relation.Tuple) bool) {
	stopped := false
	scan := func(t relation.Tuple) bool {
		stopped = !fn(t)
		return !stopped
	}
	b := v.ldb()
	if es, ok := b.(cq.EqScanner); ok {
		es.ScanEq(rel, pos, val, scan)
	} else {
		b.Scan(rel, func(t relation.Tuple) bool {
			if pos < len(t) && t[pos] == val {
				return scan(t)
			}
			return true
		})
	}
	if stopped || v.overlay == nil {
		return
	}
	v.overlay.ScanEqKeys(rel, pos, val, func(key string, t relation.Tuple) bool {
		return v.baseHas(rel, key, t) || fn(t)
	})
}

// IndexedProbes implements cq.ProbeGate: a pinned snapshot always probes
// an index; a live wrapper speaks for itself, or is trusted when it offers
// ScanEq without reservation.
func (v view) IndexedProbes() bool {
	if v.snap != nil {
		return true
	}
	if g, ok := v.base.(cq.ProbeGate); ok {
		return g.IndexedProbes()
	}
	_, ok := v.base.(cq.EqScanner)
	return ok
}

// ShardCount implements cq.ShardedSource by forwarding the pinned
// snapshot's sharding. It reports 0 (no fan-out) when the view has no
// snapshot or the overlay holds tuples for the relation — the contract
// requires the union of shards to equal Scan, and overlay tuples live in
// no shard.
func (v view) ShardCount(rel string) int {
	if v.snap == nil {
		return 0
	}
	if v.overlay != nil && v.overlay.Len(rel) > 0 {
		return 0
	}
	if ss, ok := v.snap.(cq.ShardedSource); ok {
		return ss.ShardCount(rel)
	}
	return 0
}

// ScanShard implements cq.ShardedSource (see ShardCount).
func (v view) ScanShard(rel string, shard int, fn func(relation.Tuple) bool) {
	if v.snap == nil {
		return
	}
	if ss, ok := v.snap.(cq.ShardedSource); ok {
		ss.ScanShard(rel, shard, fn)
	}
}

// relDef returns the definition of a relation of the LDB half, or nil.
func (v view) relDef(rel string) *relation.RelDef {
	if v.snap != nil {
		return v.snap.Schema().Rel(rel)
	}
	return v.base.Schema().Rel(rel)
}

// stage sinks a batch into the session overlay and returns the genuinely new
// tuples: those neither in the LDB half nor staged before. Each tuple's key
// is encoded once, for the presence check, the overlay and — when the
// session flushes — the LDB commit, and the tuples are retained as they are
// (chase facts are never mutated). A batch holding a tuple the relation's
// schema does not admit is refused whole: staged tuples are derived from and
// shipped on before the LDB sees them, so its admission check runs here.
func (v view) stage(rel string, ts []relation.Tuple) ([]relation.Tuple, error) {
	def := v.relDef(rel)
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
		if v.baseHas(rel, key, t) {
			continue
		}
		if v.overlay.Insert(rel, key, t) {
			fresh = append(fresh, t)
		}
	}
	return fresh, nil
}
