package storage

import (
	"sync"

	"codb/internal/btree"
	"codb/internal/relation"
)

// Snapshot is an immutable point-in-time read view of the database, pinned
// at a commit LSN. Snapshots are the storage half of the concurrent query
// path: the writer publishes one after every commit, and a reader holding it
// never touches a database lock, so any number of query evaluations run
// concurrently with the writer (and with each other) without lock coupling.
//
// The implementation is copy-on-write per relation, at B+tree node
// granularity: a relation's view is an O(1) clone of its primary tree and of
// the secondary trees it maintains (btree.Map.Clone), kept by every root
// until a commit writes the relation. Pinning is one atomic load; a commit
// copies only the nodes on the paths it writes, and the views keep the
// originals. Tuples are shared with the live tables (they are never mutated
// in place).
type Snapshot struct {
	lsn    uint64
	schema *relation.Schema // shared by every root until the next DDL: never mutated
	tables map[string]*tableSnap
	marks  map[string]uint64 // in force at lsn; shared, never mutated
}

// tableSnap is the immutable view of one relation: a clone of its primary
// tree and, in sec, of the secondary indexes it maintained when the view was
// made.
//
// An attribute position the relation has no index for gets one on the first
// ScanRange (or ScanEq, its point case) over it, built from the view's own
// primary with no lock but secMu and kept in sec for every root sharing the
// view. At the relation's next write the table adopts that index and
// maintains it (table.beginWrite), so the build is paid once per position,
// not once per commit.
type tableSnap struct {
	def     *relation.RelDef
	primary *btree.Map[relation.Tuple]

	secMu sync.Mutex
	sec   map[int]*btree.Map[relation.Tuple] // attr position (> 0) -> index
}

// index returns the view's index over one attribute position, building it
// on first use; secMu serialises concurrent builders. Position 0 is served
// by the primary: a tuple key begins with the encoding of the tuple's first
// value, so value-prefix scans over it enumerate what a (value ‖ key) index
// would, in the same order.
func (v *tableSnap) index(pos int) *btree.Map[relation.Tuple] {
	if pos == 0 {
		return v.primary
	}
	v.secMu.Lock()
	defer v.secMu.Unlock()
	idx, ok := v.sec[pos]
	if !ok {
		idx = secondaryOf(v.primary, pos)
		if v.sec == nil {
			v.sec = make(map[int]*btree.Map[relation.Tuple])
		}
		v.sec[pos] = idx
	}
	return idx
}

// Snapshot returns the published root: the state after the last commit,
// as one immutable view that observes every commit before the call and
// none after. It takes no lock, so it never waits for the writer (not even
// for a commit's fsync), and a commit's record is in the log before the
// commit shows in any snapshot.
func (db *DB) Snapshot() *Snapshot {
	return db.root.Load()
}

// LSN returns the commit sequence number the snapshot is pinned at.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// Schema returns the schema as of the snapshot. It is shared with the
// database: callers must not change it.
func (s *Snapshot) Schema() *relation.Schema { return s.schema }

// Rel returns the definition of a relation as of the snapshot, or nil.
func (s *Snapshot) Rel(name string) *relation.RelDef {
	if t, ok := s.tables[name]; ok {
		return t.def
	}
	return nil
}

// Count returns the number of tuples in the relation as of the snapshot.
func (s *Snapshot) Count(rel string) int {
	if t, ok := s.tables[rel]; ok {
		return t.primary.Len()
	}
	return 0
}

// Has reports whether the tuple is present in the relation as of the
// snapshot.
func (s *Snapshot) Has(rel string, tuple relation.Tuple) bool {
	return s.HasKey(rel, tuple.Key())
}

// HasKey is Has for a caller that already holds the tuple's key
// (tuple.Key()), sparing the re-encoding.
func (s *Snapshot) HasKey(rel, key string) bool {
	t, ok := s.tables[rel]
	if !ok {
		return false
	}
	_, ok = t.primary.Get(key)
	return ok
}

// Scan calls fn for every tuple of the relation in key order; fn returning
// false stops the scan. No locks are held: fn may take arbitrarily long and
// may read back into the live database.
func (s *Snapshot) Scan(rel string, fn func(relation.Tuple) bool) {
	if t, ok := s.tables[rel]; ok {
		t.primary.AscendValues(fn)
	}
}

// ScanRange scans the tuples whose attribute at position pos lies in r, as
// one ordered walk of the view's index over the position (see
// tableSnap.index): O(log n + matches) instead of O(n). Position 0 walks the
// primary, so the tuples come in key order, as Scan delivers them; another
// position delivers them by value, and within one value in key order (the
// value encoding is prefix-free).
func (s *Snapshot) ScanRange(rel string, pos int, r relation.Range, fn func(relation.Tuple) bool) {
	t, ok := s.tables[rel]
	if !ok || pos < 0 || pos >= t.def.Arity() {
		return
	}
	from, to := r.Keys()
	t.index(pos).Ascend(from, to, func(_ string, row relation.Tuple) bool { return fn(row) })
}

// ScanEq scans the tuples whose attribute at position pos equals v, in key
// order: the point range of v. The result is bit-identical to a filtered
// full scan.
func (s *Snapshot) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	t, ok := s.tables[rel]
	if !ok || pos < 0 || pos >= t.def.Arity() {
		return
	}
	// The value's encoding is a prefix of exactly its tuples' keys in the
	// index (it is prefix-free), built here without allocating.
	var buf [64]byte
	t.index(pos).AscendPrefix(relation.EncodeValue(buf[:0], v), func(_ string, row relation.Tuple) bool { return fn(row) })
}

// Tuples returns all tuples of the relation as of the snapshot, in key
// order. The tuples are shared with the snapshot (immutable); the slice is
// fresh.
func (s *Snapshot) Tuples(rel string) []relation.Tuple {
	if _, ok := s.tables[rel]; !ok {
		return nil
	}
	out := make([]relation.Tuple, 0, s.Count(rel))
	s.Scan(rel, func(row relation.Tuple) bool {
		out = append(out, row)
		return true
	})
	return out
}

// Instance exports the snapshot as a relation.Instance (oracles and tests).
func (s *Snapshot) Instance() relation.Instance {
	in := relation.NewInstance()
	for name, t := range s.tables {
		t.primary.AscendValues(func(row relation.Tuple) bool {
			in.Insert(name, row)
			return true
		})
	}
	return in
}
