package storage

import (
	"slices"
	"sort"
	"strings"
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

// shard is one hash partition of a relation, with its own lock, primary
// B+tree, secondary indexes, changelog segment and cached snapshot view.
// Writers to different shards never contend.
type shard struct {
	mu sync.RWMutex
	// primary maps tuple key -> tuple. second maps an attribute position
	// (never 0, see index) to (attr value ‖ tuple key) -> tuple, for the
	// positions IndexOn declared or a snapshot probe got adopted for.
	// The trees hold the tuples themselves, so a snapshot is a Clone of
	// them and nothing else.
	primary *btree.Map[relation.Tuple]
	second  map[int]*btree.Map[relation.Tuple]

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

	// snap is the view of the shard's current committed state that
	// DB.Snapshot hands out: made under snapMu by the first snapshot after
	// a write, shared by later snapshots, forgotten by the next write
	// (beginWrite). See shard.snapshot for the locking discipline.
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
		t.shards[i] = &shard{
			primary: btree.New[relation.Tuple](),
			second:  make(map[int]*btree.Map[relation.Tuple]),
		}
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

// index returns the tree that orders the shard by one attribute position,
// or nil. For position 0 it is the primary: a tuple key begins with the
// encoding of the tuple's first value, so value-prefix and value-range scans
// over it enumerate what a (value ‖ key) index would, in the same order.
func (s *shard) index(pos int) *btree.Map[relation.Tuple] {
	if pos == 0 {
		return s.primary
	}
	return s.second[pos]
}

// indexes returns every shard's index over the position, or nil unless all
// of them have one (adoption is per shard, see beginWrite).
func (t *table) indexes(pos int) []*btree.Map[relation.Tuple] {
	out := make([]*btree.Map[relation.Tuple], len(t.shards))
	for i, s := range t.shards {
		if out[i] = s.index(pos); out[i] == nil {
			return nil
		}
	}
	return out
}

// beginWrite prepares the shard for a change (caller holds the shard write
// lock). Until now the cached view was the shard's current state, so a
// secondary index some reader built over it is current too: the shard
// adopts a clone of it and maintains it from here on, instead of leaving
// the next snapshot to sort the relation again. A view whose index is being
// built this instant is passed over rather than waited for — its reader
// keeps the result, and a later view gets adopted.
func (s *shard) beginWrite() {
	v := s.snap
	if v == nil {
		return
	}
	s.snap = nil
	if !v.secMu.TryLock() {
		return
	}
	for pos, idx := range v.sec {
		if s.second[pos] == nil {
			s.second[pos] = idx.Clone()
		}
	}
	v.secMu.Unlock()
}

// insert adds the tuple, whose encoding is key, to the shard (caller holds
// the shard write lock). Returns whether the tuple was new.
func (s *shard) insert(key string, tuple relation.Tuple) bool {
	s.beginWrite()
	if !s.primary.Add(key, tuple) {
		return false
	}
	for pos, idx := range s.second {
		idx.Put(secondaryKey(tuple[pos], key), tuple)
	}
	return true
}

// delete removes the tuple encoded as key (caller holds the shard write
// lock). Returns whether it was present.
func (s *shard) delete(key string) bool {
	s.beginWrite()
	tuple, ok := s.primary.Delete(key)
	if !ok {
		return false
	}
	for pos, idx := range s.second {
		idx.Delete(secondaryKey(tuple[pos], key))
	}
	return true
}

// secondaryKey is the key of a tuple in the index over one of its values:
// the value's encoding, then the tuple key.
func secondaryKey(v relation.Value, key string) string {
	var buf [64]byte
	return string(append(relation.EncodeValue(buf[:0], v), key...))
}

// secondaryOf builds the index of a shard state over one attribute position
// (> 0): the keys are derived in primary order, sorted, and bulk-loaded.
func secondaryOf(primary *btree.Map[relation.Tuple], pos int) *btree.Map[relation.Tuple] {
	type entry struct {
		key string
		row relation.Tuple
	}
	entries := make([]entry, 0, primary.Len())
	primary.AscendAll(func(key string, row relation.Tuple) bool {
		entries = append(entries, entry{secondaryKey(row[pos], key), row})
		return true
	})
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	keys := make([]string, len(entries))
	rows := make([]relation.Tuple, len(entries))
	for i, e := range entries {
		keys[i], rows[i] = e.key, e.row
	}
	return btree.FromSorted(keys, rows)
}

// shardIter aliases the index iterator type used by merged scans.
type shardIter = btree.Iterator[relation.Tuple]

// itersFrom positions one iterator per tree at the smallest key >= from.
func itersFrom(trees []*btree.Map[relation.Tuple], from string) []*shardIter {
	out := make([]*shardIter, len(trees))
	for i, t := range trees {
		out[i] = t.Iter(from)
	}
	return out
}

// mergeAscend advances the per-shard iterators in global ascending key
// order, calling fn for each entry. Keys are unique across shards (a tuple
// lives in exactly one), so the merge is a straight k-way minimum
// selection. fn returning false stops the merge.
func mergeAscend(iters []*shardIter, fn func(key string, row relation.Tuple) bool) {
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
		_, row, _ := iters[best].Next()
		if !fn(bestKey, row) {
			return
		}
	}
}
