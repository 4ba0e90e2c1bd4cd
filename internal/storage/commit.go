package storage

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"codb/internal/relation"
)

// opKind is the kind of one op of a WAL record (persist.go).
type opKind uint8

const (
	opInsert opKind = 1
	opDelete opKind = 2
	opDDL    opKind = 3
)

// commit is the one commit path of the engine: Insert, InsertMany, the
// keyed batch and Delete all end here. A row is an insert, the tuple with
// its key (Key must be Tuple.Key()), or, with a nil Tuple, a delete of the
// tuple whose key is Key. It applies the rows atomically, in order, logs
// them, and sets applied[i] (len(applied) == len(rows)) for every row that
// changed its relation — for an insert, "the tuple was new".
//
// Under writeMu the rows are applied to the writer's trees straight away
// (DB.apply): what each set-semantics insert or delete did to its tree is
// the only presence test, so nothing is looked up twice, a duplicate inside
// the batch simply does nothing, and only rows that did something are
// logged and captured — a batch that changes nothing takes no LSN and writes
// no record. Then the commit takes the next LSN, appends its record with any
// staged marks (synced under SyncOnCommit), captures the changes and
// publishes the new root, so no reader observes a commit before its record
// is in the log.
//
// A WAL failure is returned to the caller, but the rows stay applied and
// published: once the record has been handed to the log its bytes may
// already be on disk (a failed fsync reports an unknowable OS state), so
// recovery may replay the commit — in-memory state must stay a superset of
// whatever the log can resurrect.
func (db *DB) commit(rows []relation.Row, applied []bool) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writable(); err != nil {
		return err
	}
	if db.apply(rows, applied) == 0 {
		// The trees are unchanged, so their published views still hold.
		root := db.root.Load()
		for i := range rows {
			if i == 0 || rows[i].Rel != rows[i-1].Rel {
				db.tables[rows[i].Rel].view = root.tables[rows[i].Rel]
			}
		}
		return nil
	}
	db.lsn++
	err := db.logRecord(func() []byte { return encodeRows(rows, applied) })
	db.applyMarks()
	db.capture(rows, applied, capture{limit: db.changelogLimit(), lsn: db.lsn})
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

// apply applies rows, a commit's (live or replayed), to the writer's trees
// and sets applied[i] as commit describes; it returns how many rows changed
// something. A delete goes down its trees alone. A run of consecutive
// inserts goes in as one sorted batch per relation (table.addSorted): rows
// already in (relation, key) order, as the overlays, checkpoints and logged
// commits hand them over, are read as they lie; any other run is sorted
// once, through a permutation of its rows, and a row repeated inside it
// counts at its first occurrence only.
func (db *DB) apply(rows []relation.Row, applied []bool) (changed int) {
	for lo := 0; lo < len(rows); {
		if rows[lo].Tuple == nil {
			if applied[lo] = db.tables[rows[lo].Rel].delete(rows[lo].Key); applied[lo] {
				changed++
			}
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(rows) && rows[hi].Tuple != nil {
			hi++
		}
		changed += db.insertRun(rows[lo:hi], applied[lo:hi])
		lo = hi
	}
	return changed
}

// insertRun is apply for a run of inserts.
func (db *DB) insertRun(rows []relation.Row, isNew []bool) (changed int) {
	if inOrder(rows) {
		for lo, hi := 0, 0; lo < len(rows); lo = hi {
			for hi = lo + 1; hi < len(rows) && rows[hi].Rel == rows[lo].Rel; hi++ {
			}
			changed += db.tables[rows[lo].Rel].addSorted(sortedRows(rows[lo:hi]), isNew[lo:hi])
		}
		return changed
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := compareRows(&rows[a], &rows[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	perm = slices.CompactFunc(perm, func(a, b int32) bool { return compareRows(&rows[a], &rows[b]) == 0 })
	added := make([]bool, len(perm))
	for lo, hi := 0, 0; lo < len(perm); lo = hi {
		rel := rows[perm[lo]].Rel
		for hi = lo + 1; hi < len(perm) && rows[perm[hi]].Rel == rel; hi++ {
		}
		changed += db.tables[rel].addSorted(permRows{rows, perm[lo:hi]}, added[lo:hi])
	}
	clear(isNew)
	for j, i := range perm {
		isNew[i] = added[j]
	}
	return changed
}

// compareRows orders rows by relation, then key.
func compareRows(a, b *relation.Row) int {
	if a.Rel != b.Rel {
		return strings.Compare(a.Rel, b.Rel)
	}
	return strings.Compare(a.Key, b.Key)
}

// inOrder reports whether rows are in strictly ascending (relation, key)
// order.
func inOrder(rows []relation.Row) bool {
	for i := 1; i < len(rows); i++ {
		if compareRows(&rows[i-1], &rows[i]) >= 0 {
			return false
		}
	}
	return true
}

// sortedRows is a run of one relation's rows in ascending key order, read
// in place as a batch for its primary tree.
type sortedRows []relation.Row

func (s sortedRows) Len() int                   { return len(s) }
func (s sortedRows) Key(i int) string           { return s[i].Key }
func (s sortedRows) Value(i int) relation.Tuple { return s[i].Tuple }

// permRows is a run of one relation's rows read in ascending key order
// through perm.
type permRows struct {
	rows []relation.Row
	perm []int32
}

func (p permRows) Len() int                   { return len(p.perm) }
func (p permRows) Key(i int) string           { return p.rows[p.perm[i]].Key }
func (p permRows) Value(i int) relation.Tuple { return p.rows[p.perm[i]].Tuple }

// capture records a commit's applied rows in their relations' changelogs,
// in row order. A relation's changelog first makes room, in one step, for
// the inserts that follow up to its next delete or the next applied row of
// another relation, so a commit grows it at most once per such run.
func (db *DB) capture(rows []relation.Row, applied []bool, c capture) {
	var t *table
	for i := range rows {
		if !applied[i] {
			continue
		}
		if t == nil || t.def.Name != rows[i].Rel {
			t = db.tables[rows[i].Rel]
			c.reserve(t, rows[i:], applied[i:])
		}
		if rows[i].Tuple != nil {
			c.insert(t, rows[i].Tuple)
		} else {
			c.delete(t)
			c.reserve(t, rows[i+1:], applied[i+1:])
		}
	}
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
// Tuple.Key()) — in one commit: one WAL record, one fsync wait, one sorted
// merge into each relation's trees. isNew[i] reports whether rows[i] was
// new: false for a tuple already present or repeated earlier in the batch.
// Nothing is inserted when a row names an unknown relation or does not fit
// its schema. The database keeps the rows' tuples, and reads rows only
// during the call.
func (db *DB) InsertKeyed(rows []relation.Row) (isNew []bool, err error) {
	var def *relation.RelDef
	for _, r := range rows {
		if def == nil || def.Name != r.Rel {
			if def = db.Rel(r.Rel); def == nil {
				return nil, fmt.Errorf("storage: unknown relation %q", r.Rel)
			}
		}
		// Every relation has an attribute, so a valid tuple is never the
		// nil that marks a delete.
		if err := def.Validate(r.Tuple); err != nil {
			return nil, err
		}
	}
	isNew = make([]bool, len(rows))
	if len(rows) == 0 {
		return isNew, nil
	}
	if err := db.commit(rows, isNew); err != nil {
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
	err := db.commit([]relation.Row{{Rel: rel, Key: tuple.Key()}}, existed)
	return existed[0], err
}
