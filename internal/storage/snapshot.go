package storage

import (
	"sort"
	"sync"

	"codb/internal/relation"
)

// Snapshot is an immutable point-in-time read view of the database, pinned
// at the commit LSN current when it was taken. Snapshots are the storage
// half of the concurrent query path: a reader holding one never touches a
// database lock again, so any number of query evaluations run concurrently
// with committing writers (and with each other) without lock coupling.
//
// The implementation is copy-on-write per shard: each shard keeps one
// cached immutable view of its committed state (a flat, key-ordered tuple
// array), built lazily by the first snapshot that needs it and shared by
// every later snapshot until a commit touching the shard invalidates it.
// Taking a snapshot of a quiescent database is therefore O(relations ×
// shards); after a commit only the touched shards are rebuilt. Tuples are
// shared with the live shards (they are never mutated in place), so a
// snapshot costs memory only for the key/row arrays.
//
// Snapshots expose their sharding (ShardCount / ScanShard): the CQ
// evaluator fans its hash-join build scans out across shards when
// EvalOptions.Parallelism allows, which is safe exactly because the views
// are immutable.
type Snapshot struct {
	lsn    uint64
	schema *relation.Schema
	tables map[string]*relSnap
}

// relSnap is the immutable view of one relation: one tableSnap per shard.
type relSnap struct {
	def    *relation.RelDef
	shards []*tableSnap
}

// tableSnap is the immutable view of one shard: tuples in key order, with
// the parallel key array supporting binary-search lookups.
//
// Secondary views (sec) are materialised lazily by the first ScanEq that
// probes an attribute position, from the view's own immutable keys/rows —
// no shard lock is taken at probe time. They follow the same one-flat-view
// COW discipline as the primary view: a commit touching the shard drops the
// shard's cached tableSnap, so the next snapshot starts with an empty
// secondary cache, while every snapshot sharing this tableSnap shares its
// secondary views too.
type tableSnap struct {
	keys []string         // sorted tuple keys
	rows []relation.Tuple // parallel to keys

	secMu sync.Mutex
	sec   map[int]*secView // attr position -> lazily built secondary view
}

// secView is one lazily materialised secondary view of a shard snapshot:
// rows ordered by (attr value ‖ tuple key), the same key shape as the live
// engine's secondary indexes, so a value-prefix probe enumerates exactly
// the matching tuples in tuple-key order.
type secView struct {
	keys []string         // secondaryKey(row, pos), sorted
	rows []relation.Tuple // parallel to keys
}

// secondary returns the shard view's secondary view over one attribute
// position, building it on first use. The view is immutable once built and
// shared by every snapshot holding this tableSnap; secMu serialises
// concurrent builders.
func (v *tableSnap) secondary(pos int) *secView {
	v.secMu.Lock()
	defer v.secMu.Unlock()
	if sv, ok := v.sec[pos]; ok {
		return sv
	}
	n := len(v.rows)
	keys := make([]string, n)
	for i, row := range v.rows {
		keys[i] = secondaryKey(row, pos)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sv := &secView{keys: make([]string, n), rows: make([]relation.Tuple, n)}
	for out, in := range idx {
		sv.keys[out] = keys[in]
		sv.rows[out] = v.rows[in]
	}
	if v.sec == nil {
		v.sec = make(map[int]*secView)
	}
	v.sec[pos] = sv
	return sv
}

// Snapshot pins a read view at the current commit LSN. The returned
// Snapshot is immutable and safe for concurrent use; it observes every
// transaction committed before the call and none committed after. Every
// shard lock is held at once while the view is assembled — and a commit
// holds all its shard write locks from LSN assignment through application —
// so the cut is consistent even under concurrent multi-shard commits.
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
		tables: make(map[string]*relSnap, len(db.tables)),
	}
	for _, name := range names {
		t := db.tables[name]
		rs := &relSnap{def: t.def, shards: make([]*tableSnap, len(t.shards))}
		for i, sh := range t.shards {
			rs.shards[i] = sh.snapshot()
		}
		s.tables[name] = rs
	}
	return s
}

// snapshot returns the shard's cached immutable view, building it if a
// commit invalidated the previous one. The caller holds the shard read
// lock (so no writer mutates primary/rows concurrently); snapMu serialises
// concurrent builders. Writers reset s.snap under the shard write lock,
// which excludes every reader, so all access to s.snap is race-free.
func (s *shard) snapshot() *tableSnap {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snap == nil {
		n := s.primary.Len()
		v := &tableSnap{
			keys: make([]string, 0, n),
			rows: make([]relation.Tuple, 0, n),
		}
		s.primary.AscendAll(func(k string, slot int) bool {
			v.keys = append(v.keys, k)
			v.rows = append(v.rows, s.rows[slot])
			return true
		})
		s.snap = v
	}
	return s.snap
}

// invalidateSnap drops the cached view after a commit touched the shard
// (caller holds the shard write lock).
func (s *shard) invalidateSnap() { s.snap = nil }

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
	t, ok := s.tables[rel]
	if !ok {
		return 0
	}
	n := 0
	for _, sh := range t.shards {
		n += len(sh.rows)
	}
	return n
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
	sh := t.shards[shardIndex(key, len(t.shards))]
	i := sort.SearchStrings(sh.keys, key)
	return i < len(sh.keys) && sh.keys[i] == key
}

// Scan calls fn for every tuple of the relation in global key order (a
// k-way merge over the per-shard views); fn returning false stops the
// scan. No locks are held: fn may take arbitrarily long and may read back
// into the live database.
func (s *Snapshot) Scan(rel string, fn func(relation.Tuple) bool) {
	t, ok := s.tables[rel]
	if !ok {
		return
	}
	if len(t.shards) == 1 {
		for _, row := range t.shards[0].rows {
			if !fn(row) {
				return
			}
		}
		return
	}
	idx := make([]int, len(t.shards))
	for {
		best := -1
		var bestKey string
		for i, sh := range t.shards {
			if idx[i] < len(sh.keys) {
				if k := sh.keys[idx[i]]; best < 0 || k < bestKey {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			return
		}
		if !fn(t.shards[best].rows[idx[best]]) {
			return
		}
		idx[best]++
	}
}

// ShardCount returns the number of hash partitions of the relation as of
// the snapshot (0 for unknown relations). Implements cq.ShardedSource.
func (s *Snapshot) ShardCount(rel string) int {
	if t, ok := s.tables[rel]; ok {
		return len(t.shards)
	}
	return 0
}

// ScanShard iterates one shard of the relation in key order. The view is
// immutable, so any number of shard scans run concurrently. Implements
// cq.ShardedSource.
func (s *Snapshot) ScanShard(rel string, shard int, fn func(relation.Tuple) bool) {
	t, ok := s.tables[rel]
	if !ok || shard < 0 || shard >= len(t.shards) {
		return
	}
	for _, row := range t.shards[shard].rows {
		if !fn(row) {
			return
		}
	}
}

// ScanEq scans the tuples whose attribute at position pos equals v, in key
// order, as an index probe: each shard's lazily materialised secondary view
// (see tableSnap.secondary) is positioned at the value prefix by binary
// search, then the per-shard runs are k-way merged. Within one value prefix
// the secondary-key order is the tuple-key order (the value encoding is
// prefix-free), so the result is bit-identical to the filtered full scan
// this used to be — only O(log n + matches) per shard instead of O(n).
func (s *Snapshot) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	t, ok := s.tables[rel]
	if !ok || pos < 0 || pos >= t.def.Arity() {
		return
	}
	prefix := string(relation.EncodeValue(nil, v))
	if len(t.shards) == 1 {
		sv := t.shards[0].secondary(pos)
		for i := sort.SearchStrings(sv.keys, prefix); i < len(sv.keys); i++ {
			if k := sv.keys[i]; len(k) < len(prefix) || k[:len(prefix)] != prefix {
				return
			}
			if !fn(sv.rows[i]) {
				return
			}
		}
		return
	}
	views := make([]*secView, len(t.shards))
	idx := make([]int, len(t.shards))
	for i, sh := range t.shards {
		sv := sh.secondary(pos)
		views[i] = sv
		at := sort.SearchStrings(sv.keys, prefix)
		if at < len(sv.keys) {
			if k := sv.keys[at]; len(k) < len(prefix) || k[:len(prefix)] != prefix {
				at = len(sv.keys) // shard has no match: retire it
			}
		}
		idx[i] = at
	}
	for {
		best := -1
		var bestKey string
		for i, sv := range views {
			if idx[i] < len(sv.keys) {
				if k := sv.keys[idx[i]]; best < 0 || k < bestKey {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			return
		}
		if !fn(views[best].rows[idx[best]]) {
			return
		}
		idx[best]++
		sv := views[best]
		if at := idx[best]; at < len(sv.keys) {
			if k := sv.keys[at]; len(k) < len(prefix) || k[:len(prefix)] != prefix {
				idx[best] = len(sv.keys) // run left the value prefix: retire
			}
		}
	}
}

// Tuples returns all tuples of the relation as of the snapshot, in key
// order. The tuples are shared with the snapshot (immutable); the slice is
// fresh.
func (s *Snapshot) Tuples(rel string) []relation.Tuple {
	t, ok := s.tables[rel]
	if !ok {
		return nil
	}
	n := 0
	for _, sh := range t.shards {
		n += len(sh.rows)
	}
	out := make([]relation.Tuple, 0, n)
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
		for _, sh := range t.shards {
			for _, row := range sh.rows {
				in.Insert(name, row)
			}
		}
	}
	return in
}
