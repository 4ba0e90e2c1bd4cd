package peer

import (
	"sync/atomic"
	"time"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// readPath is the peer's concurrent read subsystem: queries served off the
// actor loop.
//
// Funnelling every read — LocalQuery, Count, Tuples — through the peer's
// single actor goroutine would stall every reader behind one long update
// session (or one slow query evaluation). The peer instead serves reads from
// immutable snapshots the wrapper pins at the current commit LSN: any number
// of queries evaluate concurrently with the actor loop, with each other, and
// with committing writers. Point reads (Count, Schema) go straight to the
// wrapper's short-lock methods instead of pinning a whole-database snapshot.
// Writes keep serialising through the loop.
//
// Every read runs a Statement (stmt.go): query texts are parsed and
// link-scanned once per peer, in the statement table, and each statement
// keeps its last answers per answer mode, stamped with the pair (storage
// commit LSN, rule-set version) they were computed at. Any commit or rule
// broadcast implicitly invalidates every older answer, so a kept answer is
// always exactly what evaluating the query right now would return. A
// repeated read costs a table lookup, the demand step over its links, one
// atomic load, two compares and the answers copy.
type readPath struct {
	name  string
	w     core.Wrapper
	node  *core.Node // only the atomic RuleSetVersion is touched off-loop
	eval  cq.EvalOptions
	stmts *stmtTable

	// record posts a bypassed query's synthetic report to the statistics
	// module (set by the peer; never blocks the reader).
	record func(msg.UpdateReport)
	// beforeRead runs on the reader's goroutine ahead of every local query
	// that touches outgoing links (set by the peer): it counts read demand
	// per link and pulls stale lazy links so the query observes fresh
	// data. Nil-safe.
	beforeRead func(touched []*cq.Rule)

	// rules is the actor loop's published copy of the node's outgoing
	// rules, from which statements derive the links they touch. Written by
	// the loop (refreshReadRules), read by query goroutines.
	rules atomic.Pointer[readRules]

	hits, misses, stale atomic.Uint64
}

// readRules are the node's outgoing rules at rule-set version ver.
// Immutable once published.
type readRules struct {
	ver      uint64
	outgoing []*cq.Rule
}

// ReadStats are the read path's cumulative counters.
type ReadStats struct {
	// Hits and Misses count answer lookups; Stale counts the subset of
	// misses that found answers invalidated by a newer LSN or rule-set
	// version.
	Hits, Misses, Stale uint64
	// Entries is the statement table's population.
	Entries int
}

func newReadPath(name string, w core.Wrapper, node *core.Node, eval cq.EvalOptions) *readPath {
	rp := &readPath{name: name, w: w, node: node, eval: eval, stmts: newStmtTable(stmtTableBound)}
	rp.rules.Store(&readRules{})
	return rp
}

// refreshReadRules republishes the outgoing-rule copy, and brings the link
// records in step, after a rule-set mutation. Must run inside the actor loop (rules only mutate there, so
// version and copy are taken consistently); a no-op when the version is
// already current, which makes it cheap enough to call after every
// envelope.
func (p *Peer) refreshReadRules() {
	ver := p.node.RuleSetVersion()
	if p.readPath.rules.Load().ver == ver {
		return
	}
	out := append([]*cq.Rule(nil), p.node.Outgoing()...)
	p.syncLinks(out)
	p.readPath.rules.Store(&readRules{ver: ver, outgoing: out})
}

// links returns the outgoing links st's reads touch at the published rule
// set, re-deriving them only when the published version has moved since
// they were last derived.
func (rp *readPath) links(st *Statement) *stmtLinks {
	r := rp.rules.Load()
	if l := st.links.Load(); l != nil && l.ver == r.ver {
		return l
	}
	l := &stmtLinks{ver: r.ver, touched: cq.Closure(st.rels, r.outgoing)}
	st.links.Store(l)
	return l
}

// localQuery evaluates a statement over a pinned view unless the answers it
// keeps for the mode are current; l are the statement's links (rp.links).
// hit reports whether the kept answers served. They are validated against
// the wrapper's current commit LSN without pinning a snapshot; a snapshot
// is taken (and the answers stamped with *its* LSN) only when the query
// must actually evaluate. Two readers that miss at once both evaluate, and
// the later store wins: that can only cost a later miss, since every hit
// is validated. The returned tuples are shared and must not be mutated.
func (rp *readPath) localQuery(st *Statement, l *stmtLinks, mode core.QueryMode) (answers []relation.Tuple, hit bool, err error) {
	if len(l.touched) > 0 && rp.beforeRead != nil {
		rp.beforeRead(l.touched)
	}
	slot := st.slot(mode)
	ver := rp.node.RuleSetVersion()
	if a := slot.Load(); a != nil {
		if a.lsn == rp.w.LSN() && a.ver == ver {
			rp.hits.Add(1)
			out := make([]relation.Tuple, len(a.rows))
			copy(out, a.rows)
			return out, true, nil
		}
		rp.stale.Add(1)
	}
	rp.misses.Add(1)
	view := rp.w.ReadSnapshot()
	ans, err := core.EvalQuery(st.q, view, mode, rp.eval)
	if err != nil {
		return nil, false, err
	}
	// The statement keeps its own copy of the slice: callers own (and may
	// mutate) the one returned to them, on hit and miss alike.
	slot.Store(&stmtAnswers{lsn: view.LSN(), ver: ver, rows: append([]relation.Tuple(nil), ans...)})
	return ans, false, nil
}

// tryLocalStream serves a distributed-query call entirely from the read
// path when no outgoing link is relevant to the query — the common case
// after a global update has materialised everything — so the session
// machinery (and the actor loop) is never involved. ok is false when the
// query needs remote data, fails validation (the actor path surfaces the
// error), or the published rule copy is stale; callers then fall through
// to the ordinary session start.
func (rp *readPath) tryLocalStream(st *Statement, mode core.QueryMode) (<-chan relation.Tuple, <-chan msg.UpdateReport, bool) {
	if !st.valid {
		return nil, nil, false
	}
	l := rp.links(st)
	// A published copy behind the live version is conservative: a relevant
	// link may have just appeared.
	if l.ver != rp.node.RuleSetVersion() || len(l.touched) > 0 {
		return nil, nil, false
	}
	done := make(chan msg.UpdateReport, 1)
	rep := msg.UpdateReport{
		SID:           msg.NewSID(rp.name),
		Kind:          msg.KindQuery,
		Origin:        rp.name,
		StartUnixNano: time.Now().UnixNano(),
	}
	ans, hit, err := rp.localQuery(st, l, mode)
	if err != nil {
		rep.EvalErrors++
	}
	if hit {
		rep.CacheHits++
	} else {
		rep.CacheMisses++
	}
	// Full buffering: the consumer can abandon the stream without leaking
	// a goroutine or blocking anything.
	answers := make(chan relation.Tuple, len(ans))
	for _, a := range ans {
		answers <- a
	}
	close(answers)
	rep.EndUnixNano = time.Now().UnixNano()
	if rp.record != nil {
		rp.record(rep)
	}
	done <- rep
	return answers, done, true
}

// stats returns the read path's counters.
func (rp *readPath) stats() ReadStats {
	return ReadStats{Hits: rp.hits.Load(), Misses: rp.misses.Load(), Stale: rp.stale.Load(), Entries: rp.stmts.len()}
}
