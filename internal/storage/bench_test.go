package storage

import (
	"fmt"
	"sync"
	"testing"

	"codb/internal/relation"
)

func benchDB(b *testing.B, dir string) *DB {
	b.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.DefineRelation(empDef()); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkInsertMem(b *testing.B) {
	db := benchDB(b, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Insert("emp", emp(i, "name"))
	}
}

func BenchmarkInsertDurable(b *testing.B) {
	db := benchDB(b, b.TempDir())
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Insert("emp", emp(i, "name"))
	}
}

func BenchmarkInsertManyBatch(b *testing.B) {
	db := benchDB(b, "")
	batch := make([]relation.Tuple, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = emp(i*100+j, "batch")
		}
		db.InsertMany("emp", batch)
	}
}

func BenchmarkScan(b *testing.B) {
	db := benchDB(b, "")
	for i := 0; i < 10000; i++ {
		db.Insert("emp", emp(i, fmt.Sprintf("p%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		db.Scan("emp", func(relation.Tuple) bool { n++; return true })
		if n != 10000 {
			b.Fatal(n)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	db := benchDB(b, dir)
	for i := 0; i < 5000; i++ {
		db.Insert("emp", emp(i, "recover"))
	}
	db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if db2.Count("emp") != 5000 {
			b.Fatal("bad recovery")
		}
		db2.Close()
	}
}

// TestConcurrentReadersAndWriter drives parallel scans against a writer;
// run under -race this validates that readers only touch published roots.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := newEmpDB(t)
	for i := 0; i < 500; i++ {
		db.Insert("emp", emp(i, "base"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				db.Scan("emp", func(relation.Tuple) bool { n++; return true })
				if n < 500 {
					t.Errorf("scan saw %d < 500 tuples", n)
					return
				}
				has(db, "emp", emp(1, "base"))
				db.Count("emp")
			}
		}()
	}
	for i := 500; i < 1500; i++ {
		if _, err := db.Insert("emp", emp(i, "live")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if db.Count("emp") != 1500 {
		t.Errorf("Count = %d", db.Count("emp"))
	}
}
