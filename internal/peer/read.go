package peer

import (
	"sync"
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
// Results are memoised in a bounded query-result cache keyed by the
// normalized query plus answer mode and validated against the pair
// (storage commit LSN, rule-set version): any commit or rule broadcast
// implicitly invalidates every older entry, so a cached answer is always
// exactly what evaluating the query right now would return.
//
// Every read runs a Statement (stmt.go): query texts are parsed, keyed and
// link-scanned once per peer, in the statement table, so a repeated read
// costs a table lookup, the demand step over its links, one LSN compare
// and the answers copy.
type readPath struct {
	name  string
	w     core.Wrapper
	node  *core.Node // only the atomic RuleSetVersion is touched off-loop
	eval  cq.EvalOptions
	cache *core.QueryCache
	stmts *stmtTable

	// record posts a bypassed query's synthetic report to the statistics
	// module (set by the peer; never blocks the reader).
	record func(msg.UpdateReport)
	// beforeRead runs on the reader's goroutine ahead of every local query
	// that touches outgoing links (set by the peer): it counts read demand
	// per link and pulls stale lazy links so the query observes fresh
	// data. Nil-safe.
	beforeRead func(touched []*cq.Rule)

	// outgoing is the actor loop's published copy of the node's outgoing
	// rules at rule-set version ver, from which statements derive the
	// links they touch. Written by the loop (refresh), read by query
	// goroutines.
	mu       sync.RWMutex
	outgoing []*cq.Rule
	ver      uint64
}

func newReadPath(name string, w core.Wrapper, node *core.Node, eval cq.EvalOptions, cacheSize int) *readPath {
	return &readPath{
		name:  name,
		w:     w,
		node:  node,
		eval:  eval,
		cache: core.NewQueryCache(cacheSize),
		stmts: newStmtTable(cacheSize),
	}
}

// refreshReadRules republishes the outgoing-rule copy after a rule-set
// mutation. Must run inside the actor loop (rules only mutate there, so
// version and copy are taken consistently); a no-op when the version is
// already current, which makes it cheap enough to call after every
// envelope.
func (p *Peer) refreshReadRules() {
	rp := p.readPath
	ver := p.node.RuleSetVersion()
	rp.mu.RLock()
	cur := rp.ver
	rp.mu.RUnlock()
	if cur == ver {
		return
	}
	out := append([]*cq.Rule(nil), p.node.Outgoing()...)
	rp.mu.Lock()
	rp.outgoing, rp.ver = out, ver
	rp.mu.Unlock()
}

// links returns the outgoing links st's reads touch at the published rule
// set, re-deriving them only when the published version has moved since
// they were last derived.
func (rp *readPath) links(st *Statement) *stmtLinks {
	rp.mu.RLock()
	outgoing, ver := rp.outgoing, rp.ver
	rp.mu.RUnlock()
	if l := st.links.Load(); l != nil && l.ver == ver {
		return l
	}
	l := &stmtLinks{ver: ver, touched: cq.Closure(st.rels, outgoing)}
	st.links.Store(l)
	return l
}

// localQuery evaluates a statement over a pinned view, consulting the
// result cache first; l are the statement's links (rp.links). hit reports
// whether the cache answered. A hit validates against the wrapper's
// current commit LSN without pinning a snapshot; a snapshot is taken (and
// the entry stamped with *its* LSN) only when the query must actually
// evaluate.
func (rp *readPath) localQuery(st *Statement, l *stmtLinks, mode core.QueryMode) (answers []relation.Tuple, hit bool, err error) {
	if len(l.touched) > 0 && rp.beforeRead != nil {
		rp.beforeRead(l.touched)
	}
	key := st.key(mode)
	ver := rp.node.RuleSetVersion()
	if ans, ok := rp.cache.Get(key, rp.w.LSN(), ver); ok {
		return ans, true, nil
	}
	view := rp.w.ReadSnapshot()
	ans, err := core.EvalQuery(st.q, view, mode, rp.eval)
	if err != nil {
		return nil, false, err
	}
	// The cache keeps its own copy of the slice: callers own (and may
	// mutate) the one returned to them, on hit and miss alike.
	rp.cache.Put(key, view.LSN(), ver, append([]relation.Tuple(nil), ans...))
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

// stats returns the cache counters.
func (rp *readPath) stats() core.QueryCacheStats { return rp.cache.Stats() }
