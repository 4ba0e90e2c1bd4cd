package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"codb/internal/relation"
)

// TestBatchMatchesRowAtATime: an unsorted batch with repeats inside it and
// rows already present reports the same isNew, the same Changes and the
// same state — live, after WAL replay and after a checkpoint load — as the
// same rows committed one at a time.
func TestBatchMatchesRowAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	base := make([]relation.Tuple, 300)
	for i := range base {
		base[i] = emp(r.Intn(2000), fmt.Sprintf("n%d", r.Intn(5)))
	}
	var batch []relation.Tuple
	for i := 0; i < 400; i++ {
		switch r.Intn(5) {
		case 0:
			batch = append(batch, base[r.Intn(len(base))])
		case 1:
			if len(batch) > 0 {
				batch = append(batch, batch[r.Intn(len(batch))])
				continue
			}
			fallthrough
		default:
			batch = append(batch, emp(r.Intn(2000), fmt.Sprintf("n%d", r.Intn(5))))
		}
	}
	type result struct {
		isNew   []bool
		changes []string
		live    []string
	}
	state := func(db *DB) []string {
		var keys []string
		db.Scan("emp", func(tu relation.Tuple) bool { keys = append(keys, tu.Key()); return true })
		// The secondary index must hold the same tuples.
		n := 0
		snap := db.Snapshot()
		for v := 0; v < 5; v++ {
			snap.ScanEq("emp", 1, relation.Str(fmt.Sprintf("n%d", v)), func(relation.Tuple) bool { n++; return true })
		}
		keys = append(keys, fmt.Sprint("indexed ", n))
		return keys
	}
	run := func(batched bool) (result, string) {
		dir := t.TempDir()
		db := openDurable(t, dir, Options{})
		if err := db.DefineRelation(empDef()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertMany("emp", base); err != nil {
			t.Fatal(err)
		}
		// A probe of position 1 makes the next commit maintain its index.
		db.Snapshot().ScanEq("emp", 1, relation.Str("n0"), func(relation.Tuple) bool { return true })
		mark := db.LSN()
		var res result
		if batched {
			isNew, err := db.InsertKeyed(relation.KeyedRows("emp", batch))
			if err != nil {
				t.Fatal(err)
			}
			res.isNew = isNew
		} else {
			for _, tu := range batch {
				fresh, err := db.Insert("emp", tu)
				if err != nil {
					t.Fatal(err)
				}
				res.isNew = append(res.isNew, fresh)
			}
		}
		delta, ok := db.Changes("emp", mark)
		if !ok {
			t.Fatal("history lost")
		}
		for _, tu := range delta {
			res.changes = append(res.changes, tu.Key())
		}
		res.live = state(db)
		db.crash()
		re := openDurable(t, dir, Options{})
		replayed := state(re)
		if d, ok := re.Changes("emp", mark); !ok || len(d) != len(delta) {
			t.Fatalf("batched=%v: after replay Changes = %d rows, ok %v; live %d", batched, len(d), ok, len(delta))
		}
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re = openDurable(t, dir, Options{})
		loaded := state(re)
		re.Close()
		if !slices.Equal(replayed, res.live) || !slices.Equal(loaded, res.live) {
			t.Fatalf("batched=%v: state live %d, replayed %d, loaded %d rows", batched, len(res.live), len(replayed), len(loaded))
		}
		return res, fmt.Sprint(res)
	}
	batched, b := run(true)
	single, s := run(false)
	if !slices.Equal(batched.isNew, single.isNew) {
		t.Errorf("isNew differs: batch %v, one at a time %v", batched.isNew, single.isNew)
	}
	if !slices.Equal(batched.changes, single.changes) || b != s {
		t.Errorf("batch and one-at-a-time commits differ:\n%s\n%s", b, s)
	}
}
