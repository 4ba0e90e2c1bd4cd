package storage

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"codb/internal/btree"
	"codb/internal/relation"
)

// table is one relation, with its own lock, primary B+tree, secondary
// indexes, changelog and cached snapshot view. Commits to different
// relations never contend.
type table struct {
	def *relation.RelDef
	mu  sync.RWMutex
	// primary maps tuple key -> tuple. second maps an attribute position
	// (never 0, see index) to (attr value ‖ tuple key) -> tuple, for the
	// positions a snapshot probe got adopted for. The trees hold the tuples
	// themselves, so a snapshot is a Clone of them and nothing else.
	primary *btree.Map[relation.Tuple]
	second  map[int]*btree.Map[relation.Tuple]

	// Change capture for incremental export (see DB.Changes): committed
	// inserts in commit order, each stamped with its commit LSN. Deletes are
	// not replayable as a monotone delta, so they poison history instead:
	// lostBelow rises to the deleting commit's LSN. Ring overflow (and
	// snapshot-based recovery, which starts with an empty ring) raises
	// evictedBelow instead: that history is gone from memory but still
	// serveable from retained WAL segments on durable databases.
	changes      changeRing
	lostBelow    uint64 // history before (and at) this LSN is unavailable
	evictedBelow uint64 // in-memory history before (and at) this LSN was dropped

	// snap is the view of the relation's current committed state that
	// DB.Snapshot hands out: made under snapMu by the first snapshot after a
	// write, shared by later snapshots, forgotten by the next write
	// (beginWrite). See table.snapshot for the locking discipline.
	snapMu sync.Mutex
	snap   *tableSnap
}

// change is one captured committed insert.
type change struct {
	lsn   uint64
	tuple relation.Tuple
}

// changeRing is a relation's changelog: a circular buffer holding exactly
// the last limit captured inserts, oldest first. Append and evict are O(1);
// the backing array grows geometrically up to the limit, so a small relation
// never pays for a full ring. Entries are in non-decreasing LSN order (a
// commit holds its relation locks from LSN assignment through application).
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

// capture stamps the changelog entries of one commit (live or replayed),
// with the changelog limit resolved once, not per tuple.
type capture struct {
	limit int
	lsn   uint64
}

// beginCapture starts the capture of the commit at lsn.
func (db *DB) beginCapture(lsn uint64) capture {
	return capture{limit: db.changelogLimit(), lsn: lsn}
}

// insert appends a committed insert to the relation's changelog (caller
// holds the table's write lock). Overflow drops the oldest entry and raises
// the eviction floor — watermarks below it are answered from retained WAL
// segments when the database is durable, and report history lost otherwise.
func (c *capture) insert(t *table, tuple relation.Tuple) {
	if c.limit < 0 {
		t.lostBelow = max(t.lostBelow, c.lsn)
		return
	}
	evicted := t.changes.push(change{lsn: c.lsn, tuple: tuple}, c.limit)
	t.evictedBelow = max(t.evictedBelow, evicted)
}

// delete records a committed delete (caller holds the table's write lock).
// A delete cannot be expressed as a monotone insert delta, so the
// relation's history is poisoned up to the deleting commit: callers of
// Changes with an older watermark must fall back to a full scan.
func (c *capture) delete(t *table) {
	t.lostBelow = max(t.lostBelow, c.lsn)
	t.changes = changeRing{}
}

func newTable(def *relation.RelDef) *table {
	return &table{
		def:     def,
		primary: btree.New[relation.Tuple](),
		second:  make(map[int]*btree.Map[relation.Tuple]),
	}
}

// beginWrite prepares the table for a change (caller holds the write lock).
// Until now the cached view was the table's current state, so a secondary
// index some reader built over it is current too: the table adopts a clone
// of it and maintains it from here on, instead of leaving the next snapshot
// to sort the relation again. A view whose index is being built this instant
// is passed over rather than waited for — its reader keeps the result, and a
// later view gets adopted.
func (t *table) beginWrite() {
	v := t.snap
	if v == nil {
		return
	}
	t.snap = nil
	if !v.secMu.TryLock() {
		return
	}
	for pos, idx := range v.sec {
		if t.second[pos] == nil {
			t.second[pos] = idx.Clone()
		}
	}
	v.secMu.Unlock()
}

// insert adds the tuple, whose encoding is key, to the table (caller holds
// the write lock). Returns whether the tuple was new.
func (t *table) insert(key string, tuple relation.Tuple) bool {
	t.beginWrite()
	if !t.primary.Add(key, tuple) {
		return false
	}
	for pos, idx := range t.second {
		idx.Put(secondaryKey(tuple[pos], key), tuple)
	}
	return true
}

// delete removes the tuple encoded as key (caller holds the write lock).
// Returns whether it was present.
func (t *table) delete(key string) bool {
	t.beginWrite()
	tuple, ok := t.primary.Delete(key)
	if !ok {
		return false
	}
	for pos, idx := range t.second {
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

// secondaryOf builds the index of a relation state over one attribute
// position (> 0): the keys are derived in primary order, sorted, and
// bulk-loaded.
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
