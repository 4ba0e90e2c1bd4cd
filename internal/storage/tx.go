package storage

import (
	"fmt"
	"sort"

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
	key   string         // the tuple's Key(): computed once at staging, reused to route, apply and log
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
	} else if tx.db.HasKey(rel, key) {
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
	} else if !tx.db.HasKey(rel, key) {
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
	return tx.db.HasKey(rel, key)
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
		if st.present && !tx.db.HasKey(rel, key) {
			if !fn(st.tuple) {
				return
			}
		}
	}
}

var errTxDone = fmt.Errorf("storage: transaction already finished")

// Commit applies the staged operations atomically, appends them to the WAL,
// and (when configured) syncs and checkpoints.
//
// The commit protocol is the heart of the sharded engine: the transaction
// write-locks exactly the shards its ops touch (in the global lock order),
// takes its LSN and enqueues its WAL record under the short commit-ordering
// mutex, then — on the sync-on-commit group path — waits for the shared
// batch fsync and applies while still holding only those shard locks, so
// commits to disjoint shards form batches and run in parallel while no
// reader ever observes a commit that is not yet durable.
func (tx *Tx) Commit() error {
	if tx.done {
		return errTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		return nil
	}
	db := tx.db
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return errClosed
	}
	locked := db.lockOpShards(tx.ops)
	db.commitMu.Lock()
	lsn := db.assignLSN()
	var wait <-chan error
	var werr error
	if db.log != nil {
		wait, werr = db.appendRecord(encodeOps(tx.ops))
	}
	db.commitMu.Unlock()
	// Durability before visibility: on the group-commit path (sync-on-
	// commit) the record must be stable before any reader can observe the
	// commit, so the fsync is awaited while the shard locks are still
	// held. Concurrent committers on other shards enqueue into the same
	// batch before waiting, so the fsync is still shared.
	//
	// A WAL failure is surfaced to the caller but the ops are applied in
	// memory regardless: once the record has been handed to the log its
	// bytes may already be on disk (a failed fsync reports an unknowable
	// OS state), so recovery may replay the commit — in-memory state must
	// stay a superset of whatever the log can resurrect, exactly as the
	// pre-sharding engine behaved.
	if wait != nil {
		werr = <-wait
	}
	capt := db.beginCapture(lsn, len(tx.ops))
	for _, o := range tx.ops {
		s := db.tables[o.rel].shardFor(o.key)
		switch o.kind {
		case opInsert:
			if s.insert(o.key, o.tuple) {
				capt.insert(s, o.tuple)
			}
		case opDelete:
			if s.delete(o.key) {
				capt.delete(s)
			}
		}
	}
	for _, s := range locked {
		s.mu.Unlock()
	}
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

// lockOpShards write-locks the distinct shards the ops touch, in the
// global (relation name, shard index) order, and returns them for unlock.
// Consistent ordering across commits and full-cut readers (rlockTables)
// makes the per-shard locking deadlock-free.
func (db *DB) lockOpShards(ops []op) []*shard {
	type ref struct {
		rel string
		idx int
		s   *shard
	}
	refs := make([]ref, 0, len(ops))
	seen := make(map[*shard]bool, len(ops))
	for _, o := range ops {
		t := db.tables[o.rel]
		idx := shardIndex(o.key, len(t.shards))
		s := t.shards[idx]
		if !seen[s] {
			seen[s] = true
			refs = append(refs, ref{o.rel, idx, s})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].rel != refs[j].rel {
			return refs[i].rel < refs[j].rel
		}
		return refs[i].idx < refs[j].idx
	})
	out := make([]*shard, len(refs))
	for i, r := range refs {
		r.s.mu.Lock()
		out[i] = r.s
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
	tx := db.Begin()
	fresh, err := tx.Insert(rel, tuple)
	if err != nil {
		tx.Rollback()
		return false, err
	}
	return fresh, tx.Commit()
}

// InsertMany inserts a batch in one transaction, returning the tuples that
// were actually new (the delta T′ = T \ R the update algorithm needs).
func (db *DB) InsertMany(rel string, tuples []relation.Tuple) ([]relation.Tuple, error) {
	tx := db.Begin()
	var fresh []relation.Tuple
	for _, t := range tuples {
		ok, err := tx.Insert(rel, t)
		if err != nil {
			tx.Rollback()
			return nil, err
		}
		if ok {
			fresh = append(fresh, t)
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return fresh, nil
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
