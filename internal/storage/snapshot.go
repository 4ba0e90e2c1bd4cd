package storage

import (
	"sync"

	"codb/internal/btree"
	"codb/internal/relation"
)

// Snapshot is an immutable point-in-time read view of the database, pinned
// at the commit LSN current when it was taken. Snapshots are the storage
// half of the concurrent query path: a reader holding one never touches a
// database lock again, so any number of query evaluations run concurrently
// with committing writers (and with each other) without lock coupling.
//
// The implementation is copy-on-write per relation, at B+tree node
// granularity: a relation's view is an O(1) clone of its primary tree and of
// the secondary trees it maintains (btree.Map.Clone), cached until the
// relation's next write so that quiescent snapshots share it. Pinning costs
// O(relations) whatever the tables hold; a commit after a pin copies only
// the nodes on the paths it writes, and the view keeps the originals.
// Tuples are shared with the live tables (they are never mutated in place).
type Snapshot struct {
	lsn    uint64
	schema *relation.Schema
	tables map[string]*tableSnap
}

// tableSnap is the immutable view of one relation: a clone of its primary
// tree and, in sec, of the secondary indexes it maintained when the view was
// made.
//
// An attribute position the relation has no index for gets one on the first
// ScanRange (or ScanEq, its point case) over it, built from the view's own
// primary with no table lock and kept in sec for every snapshot sharing the
// view. If the view is still the relation's current state at its next write,
// the table adopts that index and maintains it (table.beginWrite), so the
// build is paid once per position, not once per commit.
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

// Snapshot pins a read view at the current commit LSN. The returned
// Snapshot is immutable and safe for concurrent use; it observes every
// transaction committed before the call and none committed after. Every
// table lock is held at once while the view is assembled — and a commit
// holds all its table write locks from LSN assignment through application —
// so the cut is consistent even under concurrent multi-relation commits.
func (db *DB) Snapshot() *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := db.sortedTableNames()
	unlock := db.rlockTables(names)
	defer unlock()
	db.lsnMu.Lock()
	lsn := db.lsn // == visible here: no commit is between assignment and apply
	db.lsnMu.Unlock()
	s := &Snapshot{
		lsn:    lsn,
		schema: db.schema.Clone(),
		tables: make(map[string]*tableSnap, len(db.tables)),
	}
	for _, name := range names {
		s.tables[name] = db.tables[name].snapshot()
	}
	return s
}

// snapshot returns the table's cached view, cloning the trees if a write
// forgot the previous one. The caller holds the table read lock (so no
// writer is inside the trees; Clone only re-tokens them, which readers never
// look at); snapMu serialises concurrent cloners. Writers reset t.snap under
// the table write lock, which excludes every reader, so all access to t.snap
// is race-free.
func (t *table) snapshot() *tableSnap {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if t.snap == nil {
		v := &tableSnap{def: t.def, primary: t.primary.Clone()}
		if len(t.second) > 0 {
			v.sec = make(map[int]*btree.Map[relation.Tuple], len(t.second))
			for pos, idx := range t.second {
				v.sec[pos] = idx.Clone()
			}
		}
		t.snap = v
	}
	return t.snap
}

// LSN returns the commit sequence number the snapshot is pinned at.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// Schema returns the schema as of the snapshot.
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
	s.ScanRange(rel, pos, relation.Point(v), fn)
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
