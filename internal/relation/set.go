package relation

import (
	"slices"

	"codb/internal/btree"
)

// Set is an ordered, indexed tuple store for transient data: one B+tree per
// relation keyed by the tuples' order-preserving encoding, plus secondary
// trees per attribute position past the first. It backs the per-session
// overlay in internal/core.
//
// Scans deliver tuples in key order without sorting, each tuple once.
// Position 0 is probed on the primary: a tuple key begins with the encoding
// of its first value, so a value-prefix scan of it enumerates what a
// (value ‖ key) index would, in the same order. Secondary trees for the
// other positions are built by the first ScanRange over one and
// maintained by every later Insert, so an equality probe or a range scan
// costs O(log n + matches) — amortised, like the storage snapshots' lazy
// secondary views. Because a probe may build an index, a Set is not safe
// for concurrent use, readers included.
//
// Tuples are retained, not cloned: callers must not mutate a tuple after
// inserting it (the same contract cq.Source states for tuples handed out).
type Set struct {
	rels map[string]*relSet
}

// relSet is one relation: the tuples in insertion order, and trees mapping
// keys to their slots, so a tree leaf moves plain ints when it shifts, not
// slice headers under GC write barriers. (The storage tables' trees hold the
// tuples themselves: a published view is then a clone of the trees alone.)
type relSet struct {
	rows    []Tuple
	primary *btree.Map[int]         // tuple key -> slot in rows
	second  map[int]*btree.Map[int] // attr position (> 0) -> (value ‖ tuple key) -> slot
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{rels: make(map[string]*relSet)} }

// Row is a tuple of a named relation together with its key (Tuple.Key()):
// the unit handed between stores that both index by the key, so it is
// encoded once.
type Row struct {
	Rel, Key string
	Tuple    Tuple
}

// KeyedRows pairs the tuples of one relation with their keys.
func KeyedRows(rel string, ts []Tuple) []Row {
	rows := make([]Row, len(ts))
	for i, t := range ts {
		rows[i] = Row{Rel: rel, Key: t.Key(), Tuple: t}
	}
	return rows
}

// AppendRows appends every tuple of the set to dst, relations in name order
// and each relation in key order, and returns the extended slice.
func (s *Set) AppendRows(dst []Row) []Row {
	names := make([]string, 0, len(s.rels))
	for rel := range s.rels {
		names = append(names, rel)
	}
	slices.Sort(names)
	for _, rel := range names {
		r := s.rels[rel]
		r.primary.AscendAll(func(key string, slot int) bool {
			dst = append(dst, Row{Rel: rel, Key: key, Tuple: r.rows[slot]})
			return true
		})
	}
	return dst
}

// Size returns the number of tuples in the set, over all relations.
func (s *Set) Size() int {
	n := 0
	for _, r := range s.rels {
		n += len(r.rows)
	}
	return n
}

// secondKey is the secondary-tree key of a tuple: the probed value's
// encoding followed by the tuple key, so one value's tuples are contiguous
// and ordered by tuple key (the value encoding is prefix-free).
func secondKey(v Value, key string) string {
	var buf [96]byte
	return string(append(EncodeValue(buf[:0], v), key...))
}

// Insert adds tuple t, whose encoding is key (t.Key(), computed once by the
// caller and shared with whatever else needed it), reporting whether it was
// new.
func (s *Set) Insert(rel, key string, t Tuple) bool {
	r := s.rels[rel]
	if r == nil {
		r = &relSet{primary: btree.New[int]()}
		s.rels[rel] = r
	}
	slot := len(r.rows)
	if !r.primary.Add(key, slot) {
		return false
	}
	r.rows = append(r.rows, t)
	for pos, idx := range r.second {
		if pos < len(t) {
			idx.Put(secondKey(t[pos], key), slot)
		}
	}
	return true
}

// HasKey reports whether the tuple encoded as key is present.
func (s *Set) HasKey(rel, key string) bool {
	r := s.rels[rel]
	if r == nil {
		return false
	}
	_, ok := r.primary.Get(key)
	return ok
}

// Len returns the number of tuples in the relation.
func (s *Set) Len(rel string) int {
	if r := s.rels[rel]; r != nil {
		return r.primary.Len()
	}
	return 0
}

// ScanKeys calls fn with every tuple of the relation and its key, in key
// order; fn returning false stops the scan.
func (s *Set) ScanKeys(rel string, fn func(key string, t Tuple) bool) {
	if r := s.rels[rel]; r != nil {
		r.primary.AscendAll(func(key string, slot int) bool { return fn(key, r.rows[slot]) })
	}
}

// Scan is ScanKeys without the keys (the cq.Source signature).
func (s *Set) Scan(rel string, fn func(Tuple) bool) {
	s.ScanKeys(rel, func(_ string, t Tuple) bool { return fn(t) })
}

// ScanRangeKeys calls fn with every tuple whose value at position pos lies
// in rg, and its key: in key order at position 0 (a walk of the primary), by
// value and then key order elsewhere (a walk of the position's secondary
// tree, built on first use). Tuples too short to have that position never
// match.
func (s *Set) ScanRangeKeys(rel string, pos int, rg Range, fn func(key string, t Tuple) bool) {
	r := s.rels[rel]
	if r == nil || pos < 0 {
		return
	}
	from, to := rg.Keys()
	if pos == 0 {
		r.primary.Ascend(from, to, func(key string, slot int) bool { return fn(key, r.rows[slot]) })
		return
	}
	r.index(pos).Ascend(from, to, func(k string, slot int) bool {
		t := r.rows[slot]
		return fn(k[t[pos].EncodedLen():], t)
	})
}

// index returns the tree over position pos: the primary at 0, otherwise
// the position's secondary tree, built on first use.
func (r *relSet) index(pos int) *btree.Map[int] {
	if pos == 0 {
		return r.primary
	}
	idx := r.second[pos]
	if idx == nil {
		idx = btree.New[int]()
		r.primary.AscendAll(func(key string, slot int) bool {
			if t := r.rows[slot]; pos < len(t) {
				idx.Put(secondKey(t[pos], key), slot)
			}
			return true
		})
		if r.second == nil {
			r.second = make(map[int]*btree.Map[int])
		}
		r.second[pos] = idx
	}
	return idx
}

// ScanRange is ScanRangeKeys without the keys (the cq.RangeScanner
// signature).
func (s *Set) ScanRange(rel string, pos int, rg Range, fn func(Tuple) bool) {
	s.ScanRangeKeys(rel, pos, rg, func(_ string, t Tuple) bool { return fn(t) })
}

// ScanEq is the point range of v (the cq.EqScanner signature): the tuples
// whose value at position pos equals v, in key order.
func (s *Set) ScanEq(rel string, pos int, v Value, fn func(Tuple) bool) {
	r := s.rels[rel]
	if r == nil || pos < 0 {
		return
	}
	// The value's encoding prefixes exactly its tuples' keys in the tree (it
	// is prefix-free), built here without allocating.
	var buf [64]byte
	r.index(pos).AscendPrefix(EncodeValue(buf[:0], v), func(_ string, slot int) bool { return fn(r.rows[slot]) })
}

// Union accumulates duplicate-free batches of tuples into one duplicate-free
// list, in first-seen order. A single batch is adopted as it is; a TupleSet
// is only built once a second non-empty batch has to be merged in, so the
// common case — one delta relation, one occurrence — pays for no dedup.
type Union struct {
	// Tuples is the union so far. It may alias the first batch added.
	Tuples []Tuple
	set    TupleSet
}

// Add merges one batch, which must itself be free of duplicates.
func (u *Union) Add(batch []Tuple) {
	if len(batch) == 0 {
		return
	}
	if len(u.Tuples) == 0 {
		u.Tuples = batch
		return
	}
	if len(u.set.Tuples) == 0 {
		// The first batch belongs to the caller: the set's own list stops
		// aliasing it. Its tuples are distinct, so none is looked up.
		u.set.Grow(len(u.Tuples) + len(batch))
		for _, t := range u.Tuples {
			u.set.insert(t, t.Hash())
		}
	}
	for _, t := range batch {
		u.set.Add(t)
	}
	u.Tuples = u.set.Tuples
}
