package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"codb/internal/relation"
)

// keyedRow builds a row of one of the two test relations with its key.
func keyedRow(rel string, a, b int) relation.Row {
	t := relation.Tuple{relation.Int(a), relation.Int(b)}
	return relation.Row{Rel: rel, Key: t.Key(), Tuple: t}
}

func openKeyedDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncOnCommit: dir != ""})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"r", "s"} {
		if db.Rel(rel) != nil {
			continue // recovered
		}
		def := &relation.RelDef{Name: rel, Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt}}}
		if err := db.DefineRelation(def); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameAsModel compares both relations of the database with the model.
func sameAsModel(t *testing.T, db *DB, model relation.Instance, when string) {
	t.Helper()
	for _, rel := range []string{"r", "s"} {
		got, want := db.Tuples(rel), model.Tuples(rel)
		if len(got) != len(want) {
			t.Fatalf("%s: %s holds %d tuples, model %d", when, rel, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: %s tuple %d is %v, model %v", when, rel, i, got[i], want[i])
			}
		}
	}
}

// TestInsertKeyedAgainstModel drives the keyed batch entry — what a session
// flush and InsertMany both commit through — against a relation.Instance
// model: batches over two relations with duplicates inside a batch and rows
// already present; a writer that commits one of the batch's tuples between
// the moment the batch was staged (looked up as absent) and its flush; in
// memory and durable (reopened at the end). The per-row answer, the
// contents, the change capture and the LSN must all agree with the model: a
// row is new exactly once, a batch that changes nothing takes no LSN, and
// Changes reports exactly the new rows in batch order. The shards= field of
// the subtest names is left from a retired storage layout; it keeps the
// names test histories know and picks each subtest's random trace.
func TestInsertKeyedAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/durable=%v", shards, durable), func(t *testing.T) {
				dir := ""
				if durable {
					dir = t.TempDir()
				}
				db := openKeyedDB(t, dir)
				defer func() { db.Close() }()
				model := relation.NewInstance()
				r := rand.New(rand.NewSource(int64(shards)*7 + 1))
				rounds := 120
				if durable {
					rounds = 30 // every commit is an fsync
				}
				for round := 0; round < rounds; round++ {
					// Stage: rows the stager believes absent, some repeated
					// inside the batch, some long present.
					var batch []relation.Row
					for i, n := 0, 1+r.Intn(24); i < n; i++ {
						rel := "r"
						if r.Intn(4) == 0 {
							rel = "s"
						}
						row := keyedRow(rel, r.Intn(300), r.Intn(3))
						batch = append(batch, row)
						if r.Intn(6) == 0 {
							batch = append(batch, row)
						}
					}
					// Between stage and flush another writer commits one of them.
					if r.Intn(3) == 0 {
						steal := batch[r.Intn(len(batch))]
						fresh, err := db.Insert(steal.Rel, steal.Tuple.Clone())
						if err != nil {
							t.Fatal(err)
						}
						if fresh != model.Insert(steal.Rel, steal.Tuple) {
							t.Fatalf("round %d: Insert(%v) new=%v disagrees with the model", round, steal.Tuple, fresh)
						}
					}
					lsn := db.LSN()
					isNew, err := db.InsertKeyed(batch)
					if err != nil {
						t.Fatal(err)
					}
					if len(isNew) != len(batch) {
						t.Fatalf("round %d: %d answers for %d rows", round, len(isNew), len(batch))
					}
					wantNew := map[string][]relation.Tuple{}
					for i, row := range batch {
						want := model.Insert(row.Rel, row.Tuple)
						if isNew[i] != want {
							t.Fatalf("round %d row %d %s%v: isNew=%v, model %v", round, i, row.Rel, row.Tuple, isNew[i], want)
						}
						if want {
							wantNew[row.Rel] = append(wantNew[row.Rel], row.Tuple)
						}
					}
					if moved := db.LSN() != lsn; moved != (len(wantNew) > 0) {
						t.Fatalf("round %d: LSN moved=%v with %d new rows", round, moved, len(wantNew["r"])+len(wantNew["s"]))
					}
					for _, rel := range []string{"r", "s"} {
						delta, ok := db.Changes(rel, lsn)
						if !ok || len(delta) != len(wantNew[rel]) {
							t.Fatalf("round %d: Changes(%s) = %d rows (ok=%v), want %d", round, rel, len(delta), ok, len(wantNew[rel]))
						}
						for i := range delta {
							if !delta[i].Equal(wantNew[rel][i]) {
								t.Fatalf("round %d: Changes(%s)[%d] = %v, want %v", round, rel, i, delta[i], wantNew[rel][i])
							}
						}
					}
					if round%10 == 0 {
						sameAsModel(t, db, model, fmt.Sprintf("round %d", round))
					}
				}
				sameAsModel(t, db, model, "at the end")
				if !durable {
					return
				}
				// Only what changed something was logged: replay rebuilds the model.
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = openKeyedDB(t, dir)
				sameAsModel(t, db, model, "after reopening")
			})
		}
	}
}

// TestInsertKeyedRefusesWholeBatch: a row of an unknown relation or one that
// does not fit its schema fails the batch before anything is applied.
func TestInsertKeyedRefusesWholeBatch(t *testing.T) {
	db := openKeyedDB(t, "")
	defer db.Close()
	bad := relation.Tuple{relation.Str("x"), relation.Int(1)}
	for name, batch := range map[string][]relation.Row{
		"unknown relation": {keyedRow("r", 1, 1), keyedRow("nope", 2, 2)},
		"schema violation": {keyedRow("r", 1, 1), {Rel: "r", Key: bad.Key(), Tuple: bad}},
	} {
		lsn := db.LSN()
		if _, err := db.InsertKeyed(batch); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if db.Count("r") != 0 || db.LSN() != lsn {
			t.Errorf("%s: a refused batch left %d rows, LSN %d -> %d", name, db.Count("r"), lsn, db.LSN())
		}
	}
	if isNew, err := db.InsertKeyed(nil); err != nil || len(isNew) != 0 {
		t.Errorf("empty batch: %v, %v", isNew, err)
	}
}

// TestInsertKeyedConcurrentWriters (run under -race): keyed batches and
// single inserts over overlapping tuples from several goroutines; every
// tuple is reported new exactly once across all of them.
func TestInsertKeyedConcurrentWriters(t *testing.T) {
	db := openKeyedDB(t, "")
	defer db.Close()
	const writers, span = 6, 400
	newCount := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				if w%2 == 0 {
					batch := make([]relation.Row, 16)
					for j := range batch {
						batch[j] = keyedRow("r", r.Intn(span), 0)
					}
					isNew, err := db.InsertKeyed(batch)
					if err != nil {
						t.Error(err)
						return
					}
					for _, ok := range isNew {
						if ok {
							newCount[w]++
						}
					}
				} else if ok, err := db.Insert("r", keyedRow("r", r.Intn(span), 0).Tuple); err != nil {
					t.Error(err)
					return
				} else if ok {
					newCount[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range newCount {
		total += c
	}
	if got := db.Count("r"); got != total {
		t.Errorf("%d tuples stored, %d reported new", got, total)
	}
}
