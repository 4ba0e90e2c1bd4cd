package storage

import (
	"fmt"

	"codb/internal/relation"
)

type opKind uint8

const (
	opInsert opKind = 1
	opDelete opKind = 2
	opDDL    opKind = 3
)

type op struct {
	kind  opKind
	rel   string
	key   string         // the tuple's Key(): computed once by the caller, reused to apply and log
	tuple relation.Tuple // nil for opDelete
}

// commit is the one commit path of the engine: Insert, InsertMany, the
// keyed batch and Delete all end here. It applies ops atomically, logs them,
// and sets applied[i] (len(applied) == len(ops)) for every op that changed
// its relation — for an insert, "the tuple was new".
//
// Under writeMu the ops are applied to the writer's trees straight away:
// what each set-semantics insert or delete did to its tree is the only
// presence test, so nothing is looked up twice, a duplicate inside the batch
// simply does nothing, and only ops that did something are logged and
// captured — a batch that changes nothing takes no LSN and writes no record.
// Then the commit takes the next LSN, appends its record with any staged
// marks (synced under SyncOnCommit), captures the changes and publishes the
// new root, so no reader observes a commit before its record is in the log.
//
// A WAL failure is returned to the caller, but the ops stay applied and
// published: once the record has been handed to the log its bytes may
// already be on disk (a failed fsync reports an unknowable OS state), so
// recovery may replay the commit — in-memory state must stay a superset of
// whatever the log can resurrect.
func (db *DB) commit(ops []op, applied []bool) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writable(); err != nil {
		return err
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
		// The trees are unchanged, so their published views still hold.
		root := db.root.Load()
		for i := range ops {
			db.tables[ops[i].rel].view = root.tables[ops[i].rel]
		}
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
	db.lsn++
	err := db.logRecord(db.withMarks(encodeOps(ops)))
	db.applyMarks()
	capt := db.beginCapture(db.lsn)
	for i := range ops {
		o := &ops[i]
		t := db.tables[o.rel]
		if o.kind == opInsert {
			capt.insert(t, o.tuple)
		} else {
			capt.delete(t)
		}
	}
	db.publish()
	if err != nil {
		return err
	}
	if db.log != nil {
		n := db.commitsSinceCheckpoint.Add(1)
		if db.opts.CheckpointEvery > 0 && n >= int64(db.opts.CheckpointEvery) {
			// Background: the checkpoint writes the published root while
			// the writer keeps committing.
			db.kickCheckpoint()
		}
	}
	return nil
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
// tuple already present or repeated earlier in the batch. Nothing is
// inserted when a row names an unknown relation or does not fit its schema.
// The database keeps the tuples it is given.
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

// Delete is a single-op convenience: one auto-committed deletion, reporting
// whether the tuple was present.
func (db *DB) Delete(rel string, tuple relation.Tuple) (bool, error) {
	if db.Rel(rel) == nil {
		return false, fmt.Errorf("storage: unknown relation %q", rel)
	}
	existed := []bool{false}
	err := db.commit([]op{{kind: opDelete, rel: rel, key: tuple.Key()}}, existed)
	return existed[0], err
}
