package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"codb/internal/relation"
)

func empDef() *relation.RelDef {
	return &relation.RelDef{Name: "emp", Attrs: []relation.Attr{
		{Name: "id", Type: relation.TInt},
		{Name: "name", Type: relation.TString},
	}}
}

func newEmpDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpenMem()
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	return db
}

func emp(id int, name string) relation.Tuple {
	return relation.Tuple{relation.Int(id), relation.Str(name)}
}

// has reports whether the committed state of rel holds the tuple.
func has(db *DB, rel string, tuple relation.Tuple) bool {
	return db.Snapshot().Has(rel, tuple)
}

func TestInsertHasCount(t *testing.T) {
	db := newEmpDB(t)
	fresh, err := db.Insert("emp", emp(1, "ann"))
	if err != nil || !fresh {
		t.Fatalf("Insert = %v, %v", fresh, err)
	}
	fresh, err = db.Insert("emp", emp(1, "ann"))
	if err != nil || fresh {
		t.Fatalf("duplicate Insert = %v, %v (want set semantics)", fresh, err)
	}
	if !has(db, "emp", emp(1, "ann")) || has(db, "emp", emp(2, "bob")) {
		t.Error("Has wrong")
	}
	if db.Count("emp") != 1 {
		t.Errorf("Count = %d", db.Count("emp"))
	}
}

func TestInsertValidation(t *testing.T) {
	db := newEmpDB(t)
	if _, err := db.Insert("emp", relation.Tuple{relation.Str("x"), relation.Str("y")}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := db.Insert("emp", relation.Tuple{relation.Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.Insert("nope", emp(1, "a")); err == nil {
		t.Error("unknown relation accepted")
	}
	// Marked nulls are valid in any column.
	if _, err := db.Insert("emp", relation.Tuple{relation.Int(1), relation.Null("u1")}); err != nil {
		t.Errorf("null insert rejected: %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newEmpDB(t)
	db.Insert("emp", emp(1, "ann"))
	existed, err := db.Delete("emp", emp(1, "ann"))
	if err != nil || !existed {
		t.Fatalf("Delete = %v, %v", existed, err)
	}
	if has(db, "emp", emp(1, "ann")) || db.Count("emp") != 0 {
		t.Error("tuple survived delete")
	}
	existed, _ = db.Delete("emp", emp(1, "ann"))
	if existed {
		t.Error("double delete reported existence")
	}
	// Slot reuse: delete then insert a different tuple.
	db.Insert("emp", emp(2, "bob"))
	if !has(db, "emp", emp(2, "bob")) {
		t.Error("insert after delete failed")
	}
}

func TestScanOrderAndStop(t *testing.T) {
	db := newEmpDB(t)
	for i := 5; i >= 1; i-- {
		db.Insert("emp", emp(i, fmt.Sprintf("p%d", i)))
	}
	var ids []int64
	db.Scan("emp", func(tp relation.Tuple) bool {
		ids = append(ids, tp[0].Int)
		return true
	})
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("scan order = %v", ids)
		}
	}
	n := 0
	db.Scan("emp", func(relation.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
	db.Scan("ghost", func(relation.Tuple) bool { t.Error("scan of unknown relation visited"); return false })
}

func TestInsertMany(t *testing.T) {
	db := newEmpDB(t)
	db.Insert("emp", emp(1, "ann"))
	fresh, err := db.InsertMany("emp", []relation.Tuple{emp(1, "ann"), emp(2, "bob"), emp(2, "bob"), emp(3, "cyd")})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v", fresh)
	}
	if db.Count("emp") != 3 {
		t.Errorf("Count = %d", db.Count("emp"))
	}
}

// TestSecondaryIndexScanEq probes a secondary position through snapshots:
// the first probe builds the index, a commit adopts it, and the adopted
// index stays consistent under insert and delete.
func TestSecondaryIndexScanEq(t *testing.T) {
	db := newEmpDB(t)
	for i := 0; i < 100; i++ {
		db.Insert("emp", emp(i, fmt.Sprintf("name%d", i%10)))
	}
	ids := func(pos int, v relation.Value) (got []int64) {
		db.Snapshot().ScanEq("emp", pos, v, func(tp relation.Tuple) bool {
			got = append(got, tp[0].Int)
			return true
		})
		return got
	}
	got := ids(1, relation.Str("name3"))
	if len(got) != 10 {
		t.Fatalf("indexed ScanEq returned %d tuples", len(got))
	}
	for _, id := range got {
		if id%10 != 3 {
			t.Errorf("wrong tuple id=%d", id)
		}
	}
	// The primary serves position 0.
	if got := ids(0, relation.Int(42)); len(got) != 1 || got[0] != 42 {
		t.Errorf("primary ScanEq = %v", got)
	}
	// The next commits adopt the index and keep it consistent.
	db.Delete("emp", emp(3, "name3"))
	db.Insert("emp", emp(1003, "name3"))
	if db.tables["emp"].second[1] == nil {
		t.Fatal("the commit did not adopt the probed index")
	}
	if got := ids(1, relation.Str("name3")); len(got) != 10 || got[len(got)-1] != 1003 {
		t.Errorf("after delete and insert, indexed ScanEq = %v", got)
	}
}

func TestInstanceExport(t *testing.T) {
	db := newEmpDB(t)
	db.Insert("emp", emp(1, "a"))
	db.Insert("emp", emp(2, "b"))
	in := db.Instance()
	if in.Size() != 2 || !in.Has("emp", emp(1, "a")) {
		t.Errorf("Instance = %v", in)
	}
}

func TestDefineSchemaAndStats(t *testing.T) {
	s := relation.NewSchema()
	s.MustAdd(&relation.RelDef{Name: "a", Attrs: []relation.Attr{{Name: "x", Type: relation.TInt}}})
	s.MustAdd(&relation.RelDef{Name: "b", Attrs: []relation.Attr{{Name: "y", Type: relation.TString}}})
	db := MustOpenMem()
	if err := db.DefineSchema(s); err != nil {
		t.Fatal(err)
	}
	db.Insert("a", relation.Tuple{relation.Int(1)})
	st := db.Stats()
	if st.Relations != 2 || st.Tuples != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestClosedDBRejectsWrites(t *testing.T) {
	db := newEmpDB(t)
	db.Close()
	if _, err := db.Insert("emp", emp(1, "a")); err == nil {
		t.Error("insert after close accepted")
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// Property test: random op sequence against a reference map.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := MustOpenMem()
		db.DefineRelation(empDef())
		ref := make(map[string]relation.Tuple)
		for i := 0; i < 1500; i++ {
			tp := emp(r.Intn(100), fmt.Sprintf("n%d", r.Intn(5)))
			k := tp.Key()
			switch r.Intn(3) {
			case 0, 1:
				fresh, err := db.Insert("emp", tp)
				if err != nil {
					return false
				}
				_, had := ref[k]
				if fresh == had {
					return false
				}
				ref[k] = tp
			case 2:
				existed, err := db.Delete("emp", tp)
				if err != nil {
					return false
				}
				_, had := ref[k]
				if existed != had {
					return false
				}
				delete(ref, k)
			}
		}
		if db.Count("emp") != len(ref) {
			return false
		}
		ok := true
		db.Scan("emp", func(tp relation.Tuple) bool {
			if _, had := ref[tp.Key()]; !had {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestReadersNeverWaitForTheWriter holds the writer lock, as a commit does
// across its WAL append and fsync, and requires every reader to return
// regardless: readers load the published root and take no lock.
func TestReadersNeverWaitForTheWriter(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("emp", emp(1, "ann")); err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		read func() bool
	}{
		{"Snapshot", func() bool { return db.Snapshot().Count("emp") == 1 }},
		{"LSN", func() bool { return db.LSN() == 2 }},
		{"Count", func() bool { return db.Count("emp") == 1 }},
		{"Scan", func() bool {
			n := 0
			db.Scan("emp", func(relation.Tuple) bool { n++; return true })
			return n == 1
		}},
		{"Schema", func() bool { return db.Schema().Rel("emp") != nil }},
		{"DetailedStats", func() bool { return db.DetailedStats().LSN == 2 }},
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	for _, r := range readers {
		done := make(chan bool, 1)
		go func() { done <- r.read() }()
		select {
		case ok := <-done:
			if !ok {
				t.Errorf("%s read the wrong state", r.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for the writer", r.name)
		}
	}
}

// TestMemoryCommitAllocations guards the commit path of a memory-only
// database, which has no log and so builds no WAL record: a 64-row commit
// of fresh rows makes at most 21 allocations. (It measures 21 and ~22.4 KB;
// 22 and ~24.7 KB when the record and its marks were encoded and then
// dropped.)
func TestMemoryCommitAllocations(t *testing.T) {
	const rows, runs = 64, 20
	db := newEmpDB(t)
	batches := make([][]relation.Row, runs+2) // AllocsPerRun warms up with one extra call
	for i := range batches {
		ts := make([]relation.Tuple, rows)
		for j := range ts {
			ts[j] = emp(i*rows+j, "employee")
		}
		batches[i] = relation.KeyedRows("emp", ts)
	}
	commit := func() {
		isNew, err := db.InsertKeyed(batches[0])
		if err != nil || len(isNew) != rows || !isNew[0] {
			t.Fatalf("commit: new %v, err %v", isNew, err)
		}
		batches = batches[1:]
	}
	commit()
	allocs := testing.AllocsPerRun(runs, commit)
	t.Logf("memory-only %d-row commit: %.0f allocations", rows, allocs)
	if allocs > 21 {
		t.Errorf("memory-only %d-row commit makes %.0f allocations, want <= 21", rows, allocs)
	}
}
