package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

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
	return db.hasKey(rel, tuple.Key())
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

func TestTxReadYourWrites(t *testing.T) {
	db := newEmpDB(t)
	db.Insert("emp", emp(1, "ann"))
	tx := db.Begin()
	tx.Insert("emp", emp(2, "bob"))
	tx.Delete("emp", emp(1, "ann"))
	if !tx.Has("emp", emp(2, "bob")) {
		t.Error("tx does not see its insert")
	}
	if tx.Has("emp", emp(1, "ann")) {
		t.Error("tx sees its deleted tuple")
	}
	var seen []string
	tx.Scan("emp", func(tp relation.Tuple) bool {
		seen = append(seen, tp[1].Str)
		return true
	})
	if len(seen) != 1 || seen[0] != "bob" {
		t.Errorf("tx scan = %v", seen)
	}
	// Uncommitted: DB unchanged.
	if has(db, "emp", emp(2, "bob")) || !has(db, "emp", emp(1, "ann")) {
		t.Error("staged writes leaked before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !has(db, "emp", emp(2, "bob")) || has(db, "emp", emp(1, "ann")) {
		t.Error("commit not applied")
	}
}

func TestTxRollback(t *testing.T) {
	db := newEmpDB(t)
	tx := db.Begin()
	tx.Insert("emp", emp(1, "ann"))
	tx.Rollback()
	if db.Count("emp") != 0 {
		t.Error("rollback leaked writes")
	}
	if _, err := tx.Insert("emp", emp(2, "b")); err == nil {
		t.Error("insert after rollback accepted")
	}
	if err := tx.Commit(); err == nil {
		t.Error("commit after rollback accepted")
	}
}

func TestTxInsertDeleteInterleave(t *testing.T) {
	db := newEmpDB(t)
	tx := db.Begin()
	if fresh, _ := tx.Insert("emp", emp(1, "a")); !fresh {
		t.Error("insert not fresh")
	}
	if existed, _ := tx.Delete("emp", emp(1, "a")); !existed {
		t.Error("staged tuple not deletable")
	}
	if fresh, _ := tx.Insert("emp", emp(1, "a")); !fresh {
		t.Error("re-insert after staged delete not fresh")
	}
	tx.Commit()
	if !has(db, "emp", emp(1, "a")) {
		t.Error("net insert missing")
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
