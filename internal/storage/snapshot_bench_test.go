package storage

import (
	"math/rand"
	"testing"

	"codb/internal/relation"
)

// snapBenchRows is the table size of the snapshot benchmarks: the 20k rows
// of the read-write-mix workload.
const snapBenchRows = 20000

func snapBenchDB(b *testing.B) (*DB, *rand.Rand) {
	b.Helper()
	db := MustOpenMem()
	b.Cleanup(func() { db.Close() })
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt},
	}}); err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	rows := make([]relation.Tuple, snapBenchRows)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(rnd.Int()), relation.Int(i % 100)}
	}
	if _, err := db.InsertMany("data", rows); err != nil {
		b.Fatal(err)
	}
	return db, rnd
}

var snapSink *Snapshot

// BenchmarkSnapshotAfterCommit measures what a 64-row commit of random keys
// into a 20k-row table costs its next reader ("pin": DB.Snapshot alone) and
// writer and reader together ("commit+pin": copy-on-write moves the cost of
// a view from the pin to the nodes the commit touches). The table grows by
// 64 rows per iteration, so compare runs at one -benchtime.
//
// 2-CPU box, -benchtime=300x -cpu 2, medians of 5 (flat: the key/row arrays
// every commit used to drop and the next pin copy afresh; N: btree.degree):
//
//	        pin               commit+pin
//	flat    777 µs, 1.19 MB   824 µs, 1.25 MB
//	16      as 64             182 µs, 133 KB
//	32      as 64             196 µs, 180 KB
//	64      3.5 µs, 848 B     224 µs, 262 KB
//	128     as 64             342 µs, 389 KB
func BenchmarkSnapshotAfterCommit(b *testing.B) {
	for _, timed := range []string{"pin", "commit+pin"} {
		b.Run(timed, func(b *testing.B) {
			db, rnd := snapBenchDB(b)
			batch := make([]relation.Tuple, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if timed == "pin" {
					b.StopTimer()
				}
				for j := range batch {
					batch[j] = relation.Tuple{relation.Int(rnd.Int()), relation.Int(j)}
				}
				if _, err := db.InsertMany("data", batch); err != nil {
					b.Fatal(err)
				}
				if timed == "pin" {
					b.StartTimer()
				}
				snapSink = db.Snapshot()
			}
		})
	}
}

// BenchmarkSnapshotScan measures a full Scan of a pinned 20k-row snapshot
// with an empty callback: the inner loop of every hash-join build and
// full-scan range query, at its barest. Same box and flags, -benchtime=300x:
// the flat row array read 39.5 µs; the tree reads 74 µs at degree 16, 54.5
// at 32, 43.9 at 64 (+11%: one indirect call per row either way, plus two
// dependent loads per leaf) and 48.7 at 128.
func BenchmarkSnapshotScan(b *testing.B) {
	db, _ := snapBenchDB(b)
	snap := db.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		snap.Scan("data", func(relation.Tuple) bool { n++; return true })
		if n != snapBenchRows {
			b.Fatal(n)
		}
	}
}
