package storage

import (
	"fmt"
	"slices"
	"strings"

	"codb/internal/relation"
)

// Tx is a transaction. Writes are staged privately and become visible (and
// logged) atomically at Commit. Reads through the transaction see the staged
// writes ("read your writes"). A Tx is not safe for concurrent use.
type Tx struct {
	db   *DB
	done bool
	// staged operations in order, for the WAL record
	ops []op
	// per-relation overlay: tuple key -> staged state
	overlay map[string]map[string]stagedTuple
}

type opKind uint8

const (
	opInsert opKind = 1
	opDelete opKind = 2
	opDDL    opKind = 3
)

type op struct {
	kind  opKind
	rel   string
	key   string         // the tuple's Key(): computed once at staging, reused to apply and log
	tuple relation.Tuple // nil for opDelete
}

type stagedTuple struct {
	tuple   relation.Tuple
	present bool // true = staged insert, false = staged delete
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, overlay: make(map[string]map[string]stagedTuple)}
}

func (tx *Tx) stage(rel string) map[string]stagedTuple {
	m := tx.overlay[rel]
	if m == nil {
		m = make(map[string]stagedTuple)
		tx.overlay[rel] = m
	}
	return m
}

// Insert stages a tuple insertion. It returns true if the tuple is new with
// respect to the committed state plus this transaction's stage (set
// semantics: re-inserting an existing tuple is a no-op returning false).
func (tx *Tx) Insert(rel string, tuple relation.Tuple) (bool, error) {
	if tx.done {
		return false, errTxDone
	}
	def := tx.db.Rel(rel)
	if def == nil {
		return false, fmt.Errorf("storage: unknown relation %q", rel)
	}
	if err := def.Validate(tuple); err != nil {
		return false, err
	}
	key := tuple.Key()
	m := tx.stage(rel)
	if st, ok := m[key]; ok {
		if st.present {
			return false, nil
		}
		// Staged delete followed by insert: net effect is presence.
	} else if tx.db.hasKey(rel, key) {
		return false, nil
	}
	tx.record(m, op{opInsert, rel, key, tuple.Clone()})
	return true, nil
}

// Delete stages a tuple deletion, reporting whether the tuple was present.
func (tx *Tx) Delete(rel string, tuple relation.Tuple) (bool, error) {
	if tx.done {
		return false, errTxDone
	}
	if tx.db.Rel(rel) == nil {
		return false, fmt.Errorf("storage: unknown relation %q", rel)
	}
	key := tuple.Key()
	m := tx.stage(rel)
	if st, ok := m[key]; ok {
		if !st.present {
			return false, nil
		}
	} else if !tx.db.hasKey(rel, key) {
		return false, nil
	}
	tx.record(m, op{kind: opDelete, rel: rel, key: key}) // a delete is fully described by its key
	return true, nil
}

// record stages one op: the overlay entry and the op share the op's tuple,
// a private clone nothing mutates.
func (tx *Tx) record(stage map[string]stagedTuple, o op) {
	stage[o.key] = stagedTuple{tuple: o.tuple, present: o.kind == opInsert}
	tx.ops = append(tx.ops, o)
}

// Has reports presence through the transaction (committed state plus stage).
func (tx *Tx) Has(rel string, tuple relation.Tuple) bool {
	key := tuple.Key()
	if st, ok := tx.overlay[rel][key]; ok {
		return st.present
	}
	return tx.db.hasKey(rel, key)
}

// Scan iterates the relation as seen by the transaction: committed tuples
// not staged-deleted, then staged inserts.
func (tx *Tx) Scan(rel string, fn func(relation.Tuple) bool) {
	stage := tx.overlay[rel]
	stopped := false
	tx.db.Scan(rel, func(t relation.Tuple) bool {
		if st, ok := stage[t.Key()]; ok && !st.present {
			return true
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for key, st := range stage {
		if st.present && !tx.db.hasKey(rel, key) {
			if !fn(st.tuple) {
				return
			}
		}
	}
}

var errTxDone = fmt.Errorf("storage: transaction already finished")

// Commit applies the staged operations atomically, appends them to the WAL,
// and (when configured) syncs and checkpoints.
func (tx *Tx) Commit() error {
	if tx.done {
		return errTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		return nil
	}
	return tx.db.commit(tx.ops, make([]bool, len(tx.ops)))
}

// commit is the one commit path of the engine: transactions, InsertMany and
// the keyed batch all end here. It applies ops atomically, logs them, and
// sets applied[i] (len(applied) == len(ops)) for every op that changed its
// relation — for an insert, "the tuple was new".
//
// The commit write-locks exactly the relations its ops touch (in the global
// lock order) and applies the ops to them straight away: what each
// set-semantics insert or delete did to its tree is the only presence test,
// so nothing is looked up twice, a duplicate inside the batch or a tuple
// another writer committed meanwhile simply does nothing, and only ops that
// did something are logged and captured — a batch that changes nothing takes
// no LSN and writes no record. Then the LSN is taken and the WAL record
// enqueued under the short commit-ordering mutex, and — on the sync-on-commit
// group path — the shared batch fsync is awaited, still holding only those
// relation locks: commits to disjoint relations form batches and run in
// parallel, while no reader ever observes a commit that is not yet durable.
func (db *DB) commit(ops []op, applied []bool) error {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return errClosed
	}
	locked := db.lockOpTables(ops)
	unlock := func() {
		for _, t := range locked {
			t.mu.Unlock()
		}
	}
	changed := 0
	for i := range ops {
		o := &ops[i]
		t := db.tables[o.rel]
		if o.kind == opInsert {
			applied[i] = t.insert(o.key, o.tuple)
		} else {
			applied[i] = t.delete(o.key)
		}
		if applied[i] {
			changed++
		}
	}
	if changed == 0 {
		unlock()
		db.mu.RUnlock()
		return nil
	}
	if changed < len(ops) {
		did := make([]op, 0, changed)
		for i := range ops {
			if applied[i] {
				did = append(did, ops[i])
			}
		}
		ops = did
	}
	db.commitMu.Lock()
	lsn := db.assignLSN()
	var wait <-chan error
	var werr error
	if db.log != nil {
		wait, werr = db.appendRecord(encodeOps(ops))
	}
	db.commitMu.Unlock()
	// Durability before visibility: on the group-commit path (sync-on-
	// commit) the record must be stable before any reader can observe the
	// commit, so the fsync is awaited while the relation locks are still
	// held. Concurrent committers to other relations enqueue into the same
	// batch before waiting, so the fsync is still shared.
	//
	// A WAL failure is surfaced to the caller but the ops stay applied in
	// memory: once the record has been handed to the log its bytes may
	// already be on disk (a failed fsync reports an unknowable OS state), so
	// recovery may replay the commit — in-memory state must stay a superset
	// of whatever the log can resurrect.
	if wait != nil {
		werr = <-wait
	}
	capt := db.beginCapture(lsn)
	for i := range ops {
		o := &ops[i]
		t := db.tables[o.rel]
		if o.kind == opInsert {
			capt.insert(t, o.tuple)
		} else {
			capt.delete(t)
		}
	}
	unlock()
	db.finishCommit(lsn)
	db.mu.RUnlock()
	if werr != nil {
		return werr
	}
	if db.log != nil {
		n := db.commitsSinceCheckpoint.Add(1)
		if db.opts.CheckpointEvery > 0 && n >= int64(db.opts.CheckpointEvery) {
			// Background: the checkpoint pins a snapshot and writes it
			// while this and every other committer keep going.
			db.kickCheckpoint()
		}
	}
	return nil
}

// lockOpTables write-locks the distinct relations the ops touch, in name
// order — the global lock order full-cut readers (rlockTables) use too,
// which makes the per-relation locking deadlock-free — and returns them for
// unlock.
func (db *DB) lockOpTables(ops []op) []*table {
	var out []*table
	for i := range ops {
		if t := db.tables[ops[i].rel]; !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b *table) int { return strings.Compare(a.def.Name, b.def.Name) })
	for _, t := range out {
		t.mu.Lock()
	}
	return out
}

// Rollback discards the staged operations. Rollback after Commit is a no-op.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.ops = nil
	tx.overlay = nil
}

// Insert is a single-op convenience: one auto-committed insertion. Returns
// whether the tuple was new.
func (db *DB) Insert(rel string, tuple relation.Tuple) (bool, error) {
	fresh, err := db.InsertMany(rel, []relation.Tuple{tuple})
	return len(fresh) == 1, err
}

// InsertMany inserts a batch in one commit, returning the tuples that were
// actually new (the delta T′ = T \ R the update algorithm needs). The
// database keeps the tuples it is given: the caller must not change them
// afterwards.
func (db *DB) InsertMany(rel string, tuples []relation.Tuple) ([]relation.Tuple, error) {
	isNew, err := db.InsertKeyed(relation.KeyedRows(rel, tuples))
	if err != nil {
		return nil, err
	}
	var fresh []relation.Tuple
	for i, ok := range isNew {
		if ok {
			fresh = append(fresh, tuples[i])
		}
	}
	return fresh, nil
}

// InsertKeyed is the keyed batch entry: it inserts rows — of any relations,
// each carrying the key its holder already computed (Key must be
// Tuple.Key()) — in one commit: one WAL record, one fsync wait, one tree
// descent per row. isNew[i] reports whether rows[i] was new: false for a
// tuple already present, committed by someone else since the caller last
// looked, or repeated earlier in the batch. Nothing is inserted when a row
// names an unknown relation or does not fit its schema. The database keeps
// the tuples it is given.
func (db *DB) InsertKeyed(rows []relation.Row) (isNew []bool, err error) {
	ops := make([]op, len(rows))
	var def *relation.RelDef
	for i, r := range rows {
		if def == nil || def.Name != r.Rel {
			if def = db.Rel(r.Rel); def == nil {
				return nil, fmt.Errorf("storage: unknown relation %q", r.Rel)
			}
		}
		if err := def.Validate(r.Tuple); err != nil {
			return nil, err
		}
		ops[i] = op{opInsert, r.Rel, r.Key, r.Tuple}
	}
	isNew = make([]bool, len(ops))
	if len(ops) == 0 {
		return isNew, nil
	}
	if err := db.commit(ops, isNew); err != nil {
		return nil, err
	}
	return isNew, nil
}

// Delete is a single-op convenience: one auto-committed deletion.
func (db *DB) Delete(rel string, tuple relation.Tuple) (bool, error) {
	tx := db.Begin()
	existed, err := tx.Delete(rel, tuple)
	if err != nil {
		tx.Rollback()
		return false, err
	}
	return existed, tx.Commit()
}
