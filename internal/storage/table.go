package storage

import (
	"slices"
	"sort"
	"strings"

	"codb/internal/btree"
	"codb/internal/relation"
)

// table is one relation as the writer holds it: its primary B+tree, the
// secondary indexes it maintains, its changelog, and the view of its state
// the published root holds. Only the writer touches a table, under writeMu.
type table struct {
	def *relation.RelDef
	// primary maps tuple key -> tuple. second maps an attribute position
	// (never 0, see index) to (attr value ‖ tuple key) -> tuple, for the
	// positions a snapshot probe got adopted for. The trees hold the tuples
	// themselves, so a view is a Clone of them and nothing else.
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

	// view is the published view of the table's current state; nil once a
	// commit has begun writing the table, until DB.publish makes a new one.
	view *tableSnap
}

// change is one captured committed insert.
type change struct {
	lsn   uint64
	tuple relation.Tuple
}

// changeRing is a relation's changelog: a circular buffer holding exactly
// the last limit captured inserts, oldest first. Append and evict are O(1);
// the backing array grows to make room for each commit's inserts at once
// (reserve), at least doubling, up to the limit, so a small relation never
// pays for a full ring. Entries are in non-decreasing LSN order (one writer
// captures commits in LSN order).
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

// reserve makes room for k more entries under limit (>= 1) in one step.
func (r *changeRing) reserve(k, limit int) {
	if r.n+k <= len(r.buf) || len(r.buf) == limit {
		return
	}
	grown := make([]change, min(limit, max(r.n+k, 2*len(r.buf), 8)))
	c := copy(grown[:r.n], r.buf[r.head:])
	copy(grown[c:r.n], r.buf)
	r.buf, r.head = grown, 0
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
	r.reserve(1, limit)
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

// insert appends a committed insert to the relation's changelog. Overflow drops the oldest entry and raises
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

// reserve makes room in t's changelog for the applied inserts of t at the
// head of rows, up to an applied delete or an applied row of another
// relation.
func (c *capture) reserve(t *table, rows []relation.Row, applied []bool) {
	if c.limit < 0 {
		return
	}
	k := 0
	for i := range rows {
		if !applied[i] {
			continue
		}
		if rows[i].Rel != t.def.Name || rows[i].Tuple == nil {
			break
		}
		k++
	}
	t.changes.reserve(k, c.limit)
}

// delete records a committed delete. A delete cannot be expressed as a monotone insert delta, so the
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

// beginWrite prepares the table for a commit's first write to it. Until now
// the published view was the table's current state, so a secondary index
// some reader built over it is current too: the table adopts a clone of it
// and maintains it from here on, instead of leaving the next view to sort
// the relation again. A view whose index is being built this instant is
// passed over rather than waited for — its reader keeps the result, and a
// later view gets adopted.
func (t *table) beginWrite() {
	v := t.view
	if v == nil {
		return
	}
	t.view = nil
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

// newView clones the table's trees into an immutable view.
func (t *table) newView() *tableSnap {
	v := &tableSnap{def: t.def, primary: t.primary.Clone()}
	if len(t.second) > 0 {
		v.sec = make(map[int]*btree.Map[relation.Tuple], len(t.second))
		for pos, idx := range t.second {
			v.sec[pos] = idx.Clone()
		}
	}
	return v
}

// addSorted adds the batch of rows, in strictly ascending key order, to the
// table, sets isNew[i] for the rows that were new and returns their count.
// Each maintained secondary index takes the new rows as one sorted batch
// too.
func (t *table) addSorted(b btree.Batch[relation.Tuple], isNew []bool) int {
	t.beginWrite()
	n := t.primary.AddSorted(b, isNew)
	if n == 0 {
		return 0
	}
	for pos, idx := range t.second {
		entries := make(secondaryRows, 0, n)
		for i, ok := range isNew {
			if ok {
				row := b.Value(i)
				entries = append(entries, secondaryRow{secondaryKey(row[pos], b.Key(i)), row})
			}
		}
		entries.sort()
		idx.AddSorted(entries, nil)
	}
	return n
}

// delete removes the tuple encoded as key. Returns whether it was present.
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

// secondaryRow is an entry of a secondary index: its key (secondaryKey)
// and the tuple.
type secondaryRow struct {
	key string
	row relation.Tuple
}

// secondaryRows is a batch of secondary index entries; sort puts it in key
// order.
type secondaryRows []secondaryRow

func (s secondaryRows) Len() int                   { return len(s) }
func (s secondaryRows) Key(i int) string           { return s[i].key }
func (s secondaryRows) Value(i int) relation.Tuple { return s[i].row }

func (s secondaryRows) sort() {
	slices.SortFunc(s, func(a, b secondaryRow) int { return strings.Compare(a.key, b.key) })
}

// secondaryOf builds the index of a relation state over one attribute
// position (> 0): the keys are derived in primary order, sorted, and
// bulk-loaded.
func secondaryOf(primary *btree.Map[relation.Tuple], pos int) *btree.Map[relation.Tuple] {
	entries := make(secondaryRows, 0, primary.Len())
	primary.AscendAll(func(key string, row relation.Tuple) bool {
		entries = append(entries, secondaryRow{secondaryKey(row[pos], key), row})
		return true
	})
	entries.sort()
	keys := make([]string, len(entries))
	rows := make([]relation.Tuple, len(entries))
	for i, e := range entries {
		keys[i], rows[i] = e.key, e.row
	}
	return btree.FromSorted(keys, rows)
}
