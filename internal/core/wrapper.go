package core

import (
	"fmt"

	"codb/internal/relation"
	"codb/internal/storage"
)

// StoreWrapper adapts the embedded storage engine to the Wrapper interface:
// the normal configuration, where the node has a Local Database.
type StoreWrapper struct {
	db *storage.DB
}

// NewStoreWrapper wraps a storage.DB.
func NewStoreWrapper(db *storage.DB) *StoreWrapper { return &StoreWrapper{db: db} }

// DB exposes the underlying database (for the peer API and tools).
func (w *StoreWrapper) DB() *storage.DB { return w.db }

// DefineRelation adds a relation to the local schema (DDL), letting
// configuration broadcasts install missing relations.
func (w *StoreWrapper) DefineRelation(def *relation.RelDef) error {
	return w.db.DefineRelation(def)
}

// Schema implements Wrapper.
func (w *StoreWrapper) Schema() *relation.Schema { return w.db.Schema() }

// Scan implements Wrapper.
func (w *StoreWrapper) Scan(rel string, fn func(relation.Tuple) bool) { w.db.Scan(rel, fn) }

// ScanEq implements cq.EqScanner, letting the evaluator push constants down
// to the engine's secondary indexes.
func (w *StoreWrapper) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	w.db.ScanEq(rel, pos, v, fn)
}

// IndexedProbes implements cq.ProbeGate: the live engine indexes only the
// attributes given to IndexOn and otherwise filters a full scan, so joins
// over the live wrapper (session snapshots or the read path disabled) keep
// the hash build.
func (w *StoreWrapper) IndexedProbes() bool { return false }

// Has implements Wrapper.
func (w *StoreWrapper) Has(rel string, t relation.Tuple) bool { return w.db.Has(rel, t) }

// HasKey is Has by the tuple's already-encoded key.
func (w *StoreWrapper) HasKey(rel, key string) bool { return w.db.HasKey(rel, key) }

// InsertMany implements Wrapper.
func (w *StoreWrapper) InsertMany(rel string, ts []relation.Tuple) ([]relation.Tuple, error) {
	return w.db.InsertMany(rel, ts)
}

// InsertKeyed implements Wrapper: the engine's keyed batch commit.
func (w *StoreWrapper) InsertKeyed(rows []relation.Row) ([]bool, error) {
	return w.db.InsertKeyed(rows)
}

// Count implements Wrapper.
func (w *StoreWrapper) Count(rel string) int { return w.db.Count(rel) }

// LSN implements ChangeTracker: the engine's commit sequence number.
func (w *StoreWrapper) LSN() uint64 { return w.db.LSN() }

// ReadSnapshot implements Snapshotter: an immutable view pinned at the
// engine's current commit LSN (storage.DB.Snapshot), enabling the peer's
// concurrent query path.
func (w *StoreWrapper) ReadSnapshot() ReadView { return w.db.Snapshot() }

// Changes implements ChangeTracker: the tuples committed after sinceLSN,
// with ok=false when the engine's changelog no longer covers that horizon.
func (w *StoreWrapper) Changes(rel string, sinceLSN uint64) ([]relation.Tuple, bool) {
	return w.db.Changes(rel, sinceLSN)
}

// MediatorWrapper is the Wrapper for a node whose LDB is absent (the dashed
// rectangle of the paper's Figure 1): the schema must still be specified,
// and "all required database operations (as join and project) are executed
// in Wrapper" — here, over transient in-memory relations that do not
// survive the process.
type MediatorWrapper struct {
	schema *relation.Schema
	data   *relation.Set
}

// NewMediatorWrapper builds a mediator node storage with the given shared
// schema.
func NewMediatorWrapper(schema *relation.Schema) *MediatorWrapper {
	return &MediatorWrapper{schema: schema.Clone(), data: relation.NewSet()}
}

// Schema implements Wrapper.
func (w *MediatorWrapper) Schema() *relation.Schema { return w.schema.Clone() }

// Scan implements Wrapper.
func (w *MediatorWrapper) Scan(rel string, fn func(relation.Tuple) bool) { w.data.Scan(rel, fn) }

// ScanEq implements cq.EqScanner over the relations' secondary trees.
func (w *MediatorWrapper) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	w.data.ScanEq(rel, pos, v, fn)
}

// Has implements Wrapper.
func (w *MediatorWrapper) Has(rel string, t relation.Tuple) bool { return w.data.HasKey(rel, t.Key()) }

// HasKey is Has by the tuple's already-encoded key.
func (w *MediatorWrapper) HasKey(rel, key string) bool { return w.data.HasKey(rel, key) }

// InsertMany implements Wrapper.
func (w *MediatorWrapper) InsertMany(rel string, ts []relation.Tuple) ([]relation.Tuple, error) {
	isNew, err := w.InsertKeyed(relation.KeyedRows(rel, ts))
	if err != nil {
		return nil, err
	}
	var fresh []relation.Tuple
	for i, ok := range isNew {
		if ok {
			fresh = append(fresh, ts[i])
		}
	}
	return fresh, nil
}

// InsertKeyed implements Wrapper.
func (w *MediatorWrapper) InsertKeyed(rows []relation.Row) ([]bool, error) {
	for _, r := range rows {
		def := w.schema.Rel(r.Rel)
		if def == nil {
			return nil, fmt.Errorf("mediator: unknown relation %q", r.Rel)
		}
		if err := def.Validate(r.Tuple); err != nil {
			return nil, err
		}
	}
	isNew := make([]bool, len(rows))
	for i, r := range rows {
		isNew[i] = w.data.Insert(r.Rel, r.Key, r.Tuple)
	}
	return isNew, nil
}

// Count implements Wrapper.
func (w *MediatorWrapper) Count(rel string) int { return w.data.Len(rel) }

// Reset drops all transient data (e.g. between experiments).
func (w *MediatorWrapper) Reset() { w.data = relation.NewSet() }

var (
	_ Wrapper       = (*StoreWrapper)(nil)
	_ Wrapper       = (*MediatorWrapper)(nil)
	_ ChangeTracker = (*StoreWrapper)(nil)
	_ Snapshotter   = (*StoreWrapper)(nil)
)
