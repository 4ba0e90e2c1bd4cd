package core

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"codb/internal/cq"
	"codb/internal/relation"
)

// DefaultQueryCacheSize is the entry bound used when a cache is created
// with capacity 0.
const DefaultQueryCacheSize = 256

// QueryCache is a bounded, thread-safe result cache for local query
// evaluation. Entries are keyed by the normalized query text plus answer
// mode (see CacheKey) and stamped with the storage commit LSN and the
// node's rule-set version they were computed at; a lookup hits only when
// both still match, so any commit — local insert, update-session
// materialisation, recovery — or rule reconfiguration implicitly
// invalidates every older entry. Stale entries are dropped lazily on
// access and by LRU eviction; there is no sweeper to coordinate with.
type QueryCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	byK map[string]*list.Element

	hits, misses, stale uint64
}

type cacheEntry struct {
	key      string
	lsn      uint64
	rulesVer uint64
	answers  []relation.Tuple
}

// QueryCacheStats are cumulative counters of one cache.
type QueryCacheStats struct {
	// Hits and Misses count lookups; Stale counts the subset of misses
	// that found an entry invalidated by a newer LSN or rule-set version.
	Hits, Misses, Stale uint64
	// Entries is the current cache population.
	Entries int
}

// NewQueryCache builds a cache bounded to the given number of entries
// (0 selects DefaultQueryCacheSize).
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheSize
	}
	return &QueryCache{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached answers for key if they were computed at exactly
// this (lsn, rulesVer) validity token. The returned slice is fresh (callers
// may append to it); the tuples are shared and must not be mutated.
func (c *QueryCache) Get(key string, lsn, rulesVer uint64) ([]relation.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.lsn != lsn || e.rulesVer != rulesVer {
		// Invalidated by a commit or a rule change: drop it now rather
		// than letting a dead entry occupy an LRU slot.
		c.ll.Remove(el)
		delete(c.byK, key)
		c.misses++
		c.stale++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	out := make([]relation.Tuple, len(e.answers))
	copy(out, e.answers)
	return out, true
}

// Put stores the answers for key at the given validity token, evicting the
// least recently used entry when full. The cache keeps the slice; callers
// must not mutate it afterwards.
func (c *QueryCache) Put(key string, lsn, rulesVer uint64, answers []relation.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value = &cacheEntry{key: key, lsn: lsn, rulesVer: rulesVer, answers: answers}
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry{key: key, lsn: lsn, rulesVer: rulesVer, answers: answers})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*cacheEntry).key)
	}
}

// Stats returns the cache's cumulative counters.
func (c *QueryCache) Stats() QueryCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return QueryCacheStats{Hits: c.hits, Misses: c.misses, Stale: c.stale, Entries: c.ll.Len()}
}

// CacheKey derives the cache key of a query: the query rendered with
// variables canonically renamed in order of first occurrence (head first),
// so alpha-equivalent queries — same shape, different variable names —
// share one cache line, plus the answer mode.
func CacheKey(q *cq.Query, mode QueryMode) string {
	var b strings.Builder
	names := make(map[string]string, 8)
	term := func(t cq.Term) {
		if t.IsVar() {
			nm, ok := names[t.Var]
			if !ok {
				nm = "v" + strconv.Itoa(len(names))
				names[t.Var] = nm
			}
			b.WriteString(nm)
			return
		}
		// '#' keeps constants disjoint from the renamed variable space.
		b.WriteByte('#')
		b.WriteString(t.Const.String())
	}
	atom := func(a cq.Atom) {
		b.WriteString(a.Rel)
		b.WriteByte('(')
		for i, t := range a.Terms {
			if i > 0 {
				b.WriteByte(',')
			}
			term(t)
		}
		b.WriteByte(')')
	}
	atom(q.Head)
	b.WriteString(":-")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteByte(',')
		}
		atom(a)
	}
	for _, c := range q.Cmps {
		b.WriteByte(',')
		term(c.L)
		b.WriteString(c.Op.String())
		term(c.R)
	}
	b.WriteByte('|')
	b.WriteByte(byte('0' + mode))
	return b.String()
}

// CacheKeys returns the cache key of a query under each answer mode,
// indexed by mode — CacheKey for both — rendering the query once.
func CacheKeys(q *cq.Query) [2]string {
	all := CacheKey(q, AllAnswers)
	return [2]string{all, all[:len(all)-1] + string(rune('0'+CertainAnswers))}
}
