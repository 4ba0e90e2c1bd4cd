package storage

import (
	"sort"
	"sync"

	"codb/internal/btree"
	"codb/internal/relation"
)

// table is one relation: a fixed set of hash shards. The shard count is
// decided at Open (Options.Shards / the snapshot-recorded count) and never
// changes for a live database; reopening with a different count simply
// redistributes tuples, since routing is a pure function of the tuple key.
type table struct {
	def    *relation.RelDef
	shards []*shard
}

// shard is one hash partition of a relation, with its own lock, heap,
// primary B+tree, secondary indexes, changelog segment and cached
// copy-on-write snapshot view. Writers to different shards never contend.
type shard struct {
	mu      sync.RWMutex
	rows    []relation.Tuple        // heap; nil = deleted slot
	free    []int                   // reusable slots
	primary *btree.Map[int]         // tuple key -> slot
	second  map[int]*btree.Map[int] // attr position -> (attr value ‖ tuple key) -> slot

	// Change capture for incremental export (see DB.Changes): committed
	// inserts in commit order, each stamped with its commit LSN and a
	// global capture sequence (the tie-break for multi-shard commits).
	// Deletes are not replayable as a monotone delta, so they poison
	// history instead: lostBelow rises to the deleting commit's LSN.
	// Ring overflow (and snapshot-based recovery, which starts with empty
	// rings) raises evictedBelow instead: that history is gone from
	// memory but still serveable from retained WAL segments on durable
	// databases.
	changes      changeRing
	lostBelow    uint64 // history before (and at) this LSN is unavailable
	evictedBelow uint64 // in-memory history before (and at) this LSN was dropped

	// snap is the cached immutable view backing DB.Snapshot (copy-on-write
	// per shard): built lazily under snapMu by the first snapshot after a
	// change, shared by later snapshots, reset by insert/delete. See
	// shard.snapshot for the locking discipline.
	//
	// Secondary snapshot views hang off the tableSnap itself (built lazily
	// by the first ScanEq probing an attribute position), so they follow
	// the same invalidation rule for free: insert/delete resets s.snap,
	// the next snapshot builds a fresh tableSnap with an empty secondary
	// cache, and every snapshot sharing one tableSnap shares its secondary
	// views. A secondary view is never mutated — only dropped wholesale
	// with the primary view it was derived from.
	snapMu sync.Mutex
	snap   *tableSnap
}

// change is one captured committed insert.
type change struct {
	lsn   uint64
	seq   uint64
	tuple relation.Tuple
}

// changeRing is a shard's changelog: a circular buffer holding exactly the
// last limit captured inserts, oldest first. Append and evict are O(1); the
// backing array grows geometrically up to the limit, so a small relation
// never pays for a full ring. Entries are in non-decreasing LSN order (a
// commit holds its shard locks from LSN assignment through application).
type changeRing struct {
	buf  []change // len(buf) is the current capacity, at most the limit
	head int      // index of the oldest entry
	n    int      // live entries
}

// at returns the i-th oldest entry, 0 <= i < r.n.
func (r *changeRing) at(i int) *change {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// push appends c, evicting the oldest entry once the ring holds limit
// (>= 1) entries; it returns the evicted entry's LSN, 0 when nothing was
// evicted (no insert commits at LSN 0).
func (r *changeRing) push(c change, limit int) (evictedLSN uint64) {
	if r.n == limit {
		old := &r.buf[r.head]
		evictedLSN = old.lsn
		*old = c
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		return evictedLSN
	}
	if r.n == len(r.buf) {
		grown := make([]change, min(max(2*len(r.buf), 8), limit))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	*r.at(r.n) = c
	r.n++
	return 0
}

// after returns the position of the first entry with an LSN above lsn
// (r.n when there is none).
func (r *changeRing) after(lsn uint64) int {
	return sort.Search(r.n, func(i int) bool { return r.at(i).lsn > lsn })
}

// capture stamps the changelog entries of one commit (live or replayed):
// the changelog limit is resolved and the commit's capture sequence numbers
// reserved once, not per tuple.
type capture struct {
	limit    int
	lsn, seq uint64
}

// beginCapture starts the capture of a commit of at most nops ops.
func (db *DB) beginCapture(lsn uint64, nops int) capture {
	n := uint64(nops)
	return capture{limit: db.changelogLimit(), lsn: lsn, seq: db.captureSeq.Add(n) - n}
}

// insert appends a committed insert to the owning shard's changelog (caller
// holds the shard's write lock). Overflow drops the oldest entry and raises
// the eviction floor — watermarks below it are answered from retained WAL
// segments when the database is durable, and report history lost otherwise.
func (c *capture) insert(s *shard, tuple relation.Tuple) {
	if c.limit < 0 {
		s.lostBelow = max(s.lostBelow, c.lsn)
		return
	}
	c.seq++
	evicted := s.changes.push(change{lsn: c.lsn, seq: c.seq, tuple: tuple}, c.limit)
	s.evictedBelow = max(s.evictedBelow, evicted)
}

// delete records a committed delete (caller holds the shard's write lock).
// A delete cannot be expressed as a monotone insert delta, so the shard's
// history is poisoned up to the deleting commit: callers of Changes with an
// older watermark must fall back to a full scan.
func (c *capture) delete(s *shard) {
	s.lostBelow = max(s.lostBelow, c.lsn)
	s.changes = changeRing{}
}

func newTable(def *relation.RelDef, nshards int) *table {
	t := &table{def: def, shards: make([]*shard, nshards)}
	for i := range t.shards {
		t.shards[i] = &shard{primary: btree.New[int](), second: make(map[int]*btree.Map[int])}
	}
	return t
}

// shardIndex routes a tuple key to its shard: FNV-1a over the
// order-preserving encoding, reduced modulo the shard count. Deterministic
// across processes, so recovery redistributes identically.
func shardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

func (t *table) shardFor(key string) *shard {
	return t.shards[shardIndex(key, len(t.shards))]
}

// rlockAll / runlockAll take and release every shard's read lock in index
// order (part of the global (relation name, shard index) lock order).
func (t *table) rlockAll() {
	for _, s := range t.shards {
		s.mu.RLock()
	}
}

func (t *table) runlockAll() {
	for _, s := range t.shards {
		s.mu.RUnlock()
	}
}

// insert adds the tuple, whose encoding is key, to the shard (caller holds
// the shard write lock). Returns whether the tuple was new.
func (s *shard) insert(key string, tuple relation.Tuple) bool {
	if _, dup := s.primary.Get(key); dup {
		return false
	}
	var slot int
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[slot] = tuple
	} else {
		slot = len(s.rows)
		s.rows = append(s.rows, tuple)
	}
	s.primary.Put(key, slot)
	for pos, idx := range s.second {
		idx.Put(secondaryKey(tuple, pos), slot)
	}
	s.invalidateSnap()
	return true
}

// delete removes the tuple encoded as key (caller holds the shard write
// lock). Returns whether it was present.
func (s *shard) delete(key string) bool {
	slot, ok := s.primary.Get(key)
	if !ok {
		return false
	}
	s.primary.Delete(key)
	for pos, idx := range s.second {
		idx.Delete(secondaryKey(s.rows[slot], pos))
	}
	s.rows[slot] = nil
	s.free = append(s.free, slot)
	s.invalidateSnap()
	return true
}

// buildSecondary creates the shard's secondary index over one attribute
// position (caller holds the database write lock, which excludes commits).
func (s *shard) buildSecondary(pos int) {
	idx := btree.New[int]()
	for slot, row := range s.rows {
		if row != nil {
			idx.Put(secondaryKey(row, pos), slot)
		}
	}
	s.second[pos] = idx
}

// btreeIter aliases the index iterator type used by merged scans.
type btreeIter = btree.Iterator[int]

// primaryIters positions one iterator at the start of each shard's primary
// index (shard locks held by the caller).
func (t *table) primaryIters() []*btreeIter {
	iters := make([]*btreeIter, len(t.shards))
	for i, s := range t.shards {
		iters[i] = s.primary.Iter("")
	}
	return iters
}

// mergeAscend advances the per-shard iterators in global ascending key
// order, calling fn with the owning shard's index for each entry. Keys are
// unique across shards (a tuple lives in exactly one), so the merge is a
// straight k-way minimum selection. fn returning false stops the merge.
func mergeAscend(iters []*btreeIter, fn func(shard int, key string, slot int) bool) {
	for {
		best := -1
		var bestKey string
		for i, it := range iters {
			key, ok := it.Peek()
			if !ok {
				continue
			}
			if best < 0 || key < bestKey {
				best, bestKey = i, key
			}
		}
		if best < 0 {
			return
		}
		_, slot, _ := iters[best].Next()
		if !fn(best, bestKey, slot) {
			return
		}
	}
}
