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
type readPath struct {
	name  string
	w     core.Wrapper
	node  *core.Node // only the atomic RuleSetVersion is touched off-loop
	eval  cq.EvalOptions
	cache *core.QueryCache

	// record posts a bypassed query's synthetic report to the statistics
	// module (set by the peer; never blocks the reader).
	record func(msg.UpdateReport)
	// beforeRead runs on the reader's goroutine ahead of every local query
	// (set by the peer): it counts read demand per outgoing link and pulls
	// stale lazy links so the query observes fresh data. Nil-safe.
	beforeRead func(*cq.Query)

	// outgoing is the actor loop's published copy of the node's outgoing
	// rules at rule-set version ver, consulted by the local-only query
	// bypass. Written by the loop (refresh), read by query goroutines.
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

// localQuery evaluates a query over a pinned view, consulting the result
// cache first. hit reports whether the cache answered. A hit validates
// against the wrapper's current commit LSN without pinning a snapshot; a
// snapshot is taken (and the entry stamped with *its* LSN) only when the
// query must actually evaluate.
func (rp *readPath) localQuery(q *cq.Query, mode core.QueryMode) (answers []relation.Tuple, hit bool, err error) {
	if rp.beforeRead != nil {
		rp.beforeRead(q)
	}
	key := core.CacheKey(q, mode)
	ver := rp.node.RuleSetVersion()
	if ans, ok := rp.cache.Get(key, rp.w.LSN(), ver); ok {
		return ans, true, nil
	}
	view := rp.w.ReadSnapshot()
	ans, err := core.EvalQuery(q, view, mode, rp.eval)
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
func (rp *readPath) tryLocalStream(q *cq.Query, mode core.QueryMode) (<-chan relation.Tuple, <-chan msg.UpdateReport, bool) {
	if err := q.Validate(); err != nil {
		return nil, nil, false
	}
	rp.mu.RLock()
	outgoing, ver := rp.outgoing, rp.ver
	rp.mu.RUnlock()
	if ver != rp.node.RuleSetVersion() {
		// Rules changed and the loop has not republished yet: be
		// conservative, a relevant link may have just appeared.
		return nil, nil, false
	}
	if len(cq.Closure(q.Relations(), outgoing)) > 0 {
		return nil, nil, false
	}
	done := make(chan msg.UpdateReport, 1)
	rep := msg.UpdateReport{
		SID:           msg.NewSID(rp.name),
		Kind:          msg.KindQuery,
		Origin:        rp.name,
		StartUnixNano: time.Now().UnixNano(),
	}
	ans, hit, err := rp.localQuery(q, mode)
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
