package core

import (
	"fmt"

	"codb/internal/relation"
	"codb/internal/storage"
)

// StoreWrapper adapts the embedded storage engine to the Wrapper interface:
// a node's Local Database, or a mediator's transient relations.
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

// LSN implements Wrapper: the engine's commit sequence number.
func (w *StoreWrapper) LSN() uint64 { return w.db.LSN() }

// ReadSnapshot implements Wrapper: storage.DB.Snapshot.
func (w *StoreWrapper) ReadSnapshot() *storage.Snapshot { return w.db.Snapshot() }

// Changes implements Wrapper: the tuples committed after sinceLSN, with
// ok=false when the engine's changelog no longer covers that horizon.
func (w *StoreWrapper) Changes(rel string, sinceLSN uint64) ([]relation.Tuple, bool) {
	return w.db.Changes(rel, sinceLSN)
}

// NewMediatorWrapper is the Wrapper for a node whose LDB is absent (the
// dashed rectangle of the paper's Figure 1): the schema must still be
// specified, and "all required database operations (as join and project) are
// executed in Wrapper" — here, by a memory-only engine holding the declared
// relations transiently: nothing survives the process.
func NewMediatorWrapper(schema *relation.Schema) *StoreWrapper {
	db := storage.MustOpenMem()
	if err := db.DefineSchema(schema); err != nil {
		// A schema's relations are valid and distinct by construction.
		panic(fmt.Sprintf("core: mediator schema: %v", err))
	}
	return NewStoreWrapper(db)
}

var _ Wrapper = (*StoreWrapper)(nil)
