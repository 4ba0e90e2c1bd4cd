package storage

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"codb/internal/btree"
	"codb/internal/relation"
)

func snapTestDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpenMem()
	t.Cleanup(func() { db.Close() })
	if err := db.DefineRelation(&relation.RelDef{
		Name:  "data",
		Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSnapshotIsolation(t *testing.T) {
	db := snapTestDB(t)
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	if snap.LSN() != db.LSN() {
		t.Fatalf("snapshot LSN %d, db LSN %d", snap.LSN(), db.LSN())
	}
	if snap.Count("data") != 10 {
		t.Fatalf("snapshot count = %d, want 10", snap.Count("data"))
	}

	// Later commits are invisible to the pinned view…
	if _, err := db.Insert("data", relation.Tuple{relation.Int(100), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("data", relation.Tuple{relation.Int(0), relation.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if snap.Count("data") != 10 {
		t.Fatalf("snapshot count changed to %d after writes", snap.Count("data"))
	}
	if !snap.Has("data", relation.Tuple{relation.Int(0), relation.Int(0)}) {
		t.Fatal("snapshot lost a tuple deleted after it was taken")
	}
	if snap.Has("data", relation.Tuple{relation.Int(100), relation.Int(1)}) {
		t.Fatal("snapshot sees a tuple inserted after it was taken")
	}

	// …and a fresh snapshot observes them.
	snap2 := db.Snapshot()
	if snap2.Count("data") != 10 {
		t.Fatalf("fresh snapshot count = %d, want 10", snap2.Count("data"))
	}
	if snap2.Has("data", relation.Tuple{relation.Int(0), relation.Int(0)}) {
		t.Fatal("fresh snapshot still has the deleted tuple")
	}
	if !snap2.Has("data", relation.Tuple{relation.Int(100), relation.Int(1)}) {
		t.Fatal("fresh snapshot misses the new tuple")
	}
	if snap2.LSN() <= snap.LSN() {
		t.Fatalf("fresh snapshot LSN %d not past pinned %d", snap2.LSN(), snap.LSN())
	}
}

func TestSnapshotSharingAndInvalidation(t *testing.T) {
	db := snapTestDB(t)
	if _, err := db.Insert("data", relation.Tuple{relation.Int(1), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	a, b := db.Snapshot(), db.Snapshot()
	if a.tables["data"] != b.tables["data"] {
		t.Fatal("quiescent snapshots do not share the relation view")
	}
	if _, err := db.Insert("data", relation.Tuple{relation.Int(2), relation.Int(2)}); err != nil {
		t.Fatal(err)
	}
	c := db.Snapshot()
	if c.tables["data"] == a.tables["data"] {
		t.Fatal("commit did not invalidate the cached relation view")
	}
}

// TestSnapshotScanEqMatchesDB: a snapshot's index probe finds exactly the
// tuples a filtered scan of the live database does.
func TestSnapshotScanEqMatchesDB(t *testing.T) {
	db := snapTestDB(t)
	for i := 0; i < 50; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	for v := 0; v < 5; v++ {
		want := map[string]bool{}
		db.Scan("data", func(tu relation.Tuple) bool {
			if tu[1] == relation.Int(v) {
				want[tu.Key()] = true
			}
			return true
		})
		got := map[string]bool{}
		snap.ScanEq("data", 1, relation.Int(v), func(tu relation.Tuple) bool {
			got[tu.Key()] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("v=%d: snapshot ScanEq %d tuples, db %d", v, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("v=%d: snapshot ScanEq missing %q", v, k)
			}
		}
	}
	// Out-of-range and unknown-relation scans are empty, not panics.
	snap.ScanEq("data", 7, relation.Int(0), func(relation.Tuple) bool { t.Fatal("bad pos"); return false })
	snap.ScanEq("nope", 0, relation.Int(0), func(relation.Tuple) bool { t.Fatal("bad rel"); return false })
	if snap.Count("nope") != 0 || snap.Has("nope", relation.Tuple{relation.Int(0)}) || snap.Tuples("nope") != nil {
		t.Fatal("unknown relation not empty")
	}
}

func TestSnapshotOrderAndTuples(t *testing.T) {
	db := snapTestDB(t)
	for i := 20; i >= 0; i-- {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	var fromDB, fromSnap []string
	db.Scan("data", func(tu relation.Tuple) bool { fromDB = append(fromDB, tu.Key()); return true })
	snap.Scan("data", func(tu relation.Tuple) bool { fromSnap = append(fromSnap, tu.Key()); return true })
	if len(fromDB) != len(fromSnap) {
		t.Fatalf("snapshot scan %d keys, db scan %d", len(fromSnap), len(fromDB))
	}
	for i := range fromDB {
		if fromDB[i] != fromSnap[i] {
			t.Fatalf("key order diverges at %d: %q vs %q", i, fromDB[i], fromSnap[i])
		}
	}
	ts := snap.Tuples("data")
	if len(ts) != 21 {
		t.Fatalf("Tuples returned %d rows, want 21", len(ts))
	}
	// Early-stopping scans stop.
	n := 0
	snap.Scan("data", func(relation.Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scan visited %d tuples after stop, want 3", n)
	}
}

// TestSnapshotConcurrentWithWrites hammers Snapshot from many goroutines
// while a writer commits, under -race: every snapshot must be internally
// consistent (count matches what its LSN implies).
func TestSnapshotConcurrentWithWrites(t *testing.T) {
	db := snapTestDB(t)
	const writes = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				// One tuple per commit: count == LSN - 1 (the DDL commit
				// took LSN 1).
				want := int(snap.LSN()) - 1
				if got := snap.Count("data"); got != want {
					t.Errorf("snapshot at LSN %d has %d tuples, want %d", snap.LSN(), got, want)
					return
				}
				seen := 0
				snap.Scan("data", func(relation.Tuple) bool { seen++; return true })
				if seen != want {
					t.Errorf("snapshot scan saw %d tuples, count says %d", seen, want)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(&relation.RelDef{
		Name:  "data",
		Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lsn := db.LSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Snapshot()
	if snap.LSN() != lsn {
		t.Fatalf("recovered snapshot LSN %d, want %d", snap.LSN(), lsn)
	}
	if snap.Count("data") != 25 {
		t.Fatalf("recovered snapshot count %d, want 25", snap.Count("data"))
	}
	if snap.Rel("data") == nil || snap.Schema().Rel("data") == nil {
		t.Fatal("recovered snapshot lost the schema")
	}
}

func BenchmarkSnapshot(b *testing.B) {
	db := MustOpenMem()
	defer db.Close()
	if err := db.DefineRelation(&relation.RelDef{
		Name:  "data",
		Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}},
	}); err != nil {
		b.Fatal(err)
	}
	var tuples []relation.Tuple
	for i := 0; i < 10_000; i++ {
		tuples = append(tuples, relation.Tuple{relation.Int(i), relation.Int(i)})
	}
	if _, err := db.InsertMany("data", tuples); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		db.Snapshot() // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Snapshot()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := db.Insert("data", relation.Tuple{relation.Int(-i - 1), relation.Int(0)}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			db.Snapshot()
		}
	})
}

// TestSnapshotScanEqShardedOrderIdentity checks the index-probe ScanEq
// against the definitionally correct filtered Scan, with keys inserted out
// of order: same tuples, same (tuple-key) order — the invariant the CQ
// evaluator's constant pushdown relies on for bit-identical results.
func TestSnapshotScanEqShardedOrderIdentity(t *testing.T) {
	db := snapTestDB(t)
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i * 37 % 501), relation.Int(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	for v := 0; v < 8; v++ {
		var want, got []string
		snap.Scan("data", func(tu relation.Tuple) bool {
			if tu[1] == relation.Int(v) {
				want = append(want, tu.Key())
			}
			return true
		})
		snap.ScanEq("data", 1, relation.Int(v), func(tu relation.Tuple) bool {
			got = append(got, tu.Key())
			return true
		})
		if len(want) != len(got) {
			t.Fatalf("v=%d: probe %d tuples, filtered scan %d", v, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("v=%d: position %d: probe %q, filtered scan %q", v, i, got[i], want[i])
			}
		}
	}
	// Early stop stops.
	n := 0
	snap.ScanEq("data", 1, relation.Int(0), func(relation.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d tuples, want 2", n)
	}
}

// TestSnapshotSecondaryViewSharing checks how lazily built secondary
// indexes live on: sibling snapshots share a relation view and the index one
// of them built; a commit makes the table adopt that index, so a later snapshot
// sees the committed rows through a maintained index — one that still
// shares its untouched nodes with the original — not a rebuilt one; and the
// pinned snapshots keep answering from the state they pinned.
func TestSnapshotSecondaryViewSharing(t *testing.T) {
	db := snapTestDB(t)
	for i := 0; i < 2000; i++ {
		if _, err := db.Insert("data", relation.Tuple{relation.Int(i), relation.Int(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	sec := func(v *tableSnap) *btree.Map[relation.Tuple] {
		v.secMu.Lock()
		defer v.secMu.Unlock()
		return v.sec[1]
	}
	a, b := db.Snapshot(), db.Snapshot()
	shA, shB := a.tables["data"], b.tables["data"]
	if shA != shB {
		t.Fatal("quiescent snapshots do not share the relation view")
	}
	if sec(shA) != nil {
		t.Fatal("a never-probed position has an index")
	}
	count := func(s *Snapshot, v int) (n int) {
		s.ScanEq("data", 1, relation.Int(v), func(relation.Tuple) bool { n++; return true })
		return n
	}
	before := count(a, 1)
	built := sec(shA)
	if built == nil {
		t.Fatal("ScanEq did not build the secondary index")
	}
	// The sibling snapshot probes the same index, no rebuild.
	count(b, 2)
	if sec(shB) != built {
		t.Fatal("sibling snapshot rebuilt the shared secondary index")
	}

	if _, err := db.Insert("data", relation.Tuple{relation.Int(5000), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	live := db.tables["data"].second[1]
	if live == nil {
		t.Fatal("the commit did not adopt the index a reader built")
	}
	c := db.Snapshot()
	shC := c.tables["data"]
	if shC == shA {
		t.Fatal("the commit left the old relation view cached")
	}
	pinned := sec(shC)
	if pinned == nil {
		t.Fatal("the next snapshot starts without the adopted index")
	}
	if got := count(c, 1); got != before+1 {
		t.Fatalf("later snapshot sees %d tuples for v=1, want %d", got, before+1)
	}
	if sec(shC) != pinned {
		t.Fatal("probing the later snapshot replaced its pinned index")
	}
	// Maintained, not rebuilt: a rebuild encodes every key afresh, while an
	// adopted clone still holds the key strings the reader's build made.
	kBuilt, _, _ := built.Min()
	kPinned, _, _ := pinned.Min()
	if kBuilt != kPinned || unsafe.StringData(kBuilt) != unsafe.StringData(kPinned) {
		t.Fatal("the later snapshot's index was rebuilt, not cloned from the adopted one")
	}
	// The old pinned snapshots still answer from their own state.
	if got := count(a, 1); got != before {
		t.Fatalf("pinned snapshot sees %d tuples for v=1 after the commit, want %d", got, before)
	}
}

// TestSnapshotAllocationAfterCommitIsFlat guards what a pin costs after a
// commit: DB.Snapshot following a 64-row commit allocates the same small
// number of bytes whether the table holds 1k or 32k rows. (The flat views
// this replaces copied the table: 40 B per row, 1.3 MB at 32k.)
func TestSnapshotAllocationAfterCommitIsFlat(t *testing.T) {
	perPin := func(rows int) uint64 {
		db := snapTestDB(t)
		next := 0
		insert := func(n int) {
			batch := make([]relation.Tuple, n)
			for i := range batch {
				// Spread the keys, so a commit touches leaves all over.
				batch[i] = relation.Tuple{relation.Int(next * 7919 % 1000003), relation.Int(next)}
				next++
			}
			if _, err := db.InsertMany("data", batch); err != nil {
				t.Fatal(err)
			}
		}
		insert(rows)
		const pins = 20
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < pins; i++ {
			insert(64)
			runtime.ReadMemStats(&before)
			snap := db.Snapshot()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			if snap.Count("data") != rows+64*(i+1) {
				t.Fatalf("snapshot holds %d rows, want %d", snap.Count("data"), rows+64*(i+1))
			}
		}
		return total / pins
	}
	small, large := perPin(1000), perPin(32000)
	t.Logf("DB.Snapshot after a 64-row commit: %d B at 1k rows, %d B at 32k rows", small, large)
	if large > 2048 {
		t.Fatalf("a pin at 32k rows allocates %d B; want a bounded handful of small objects (<= 2 KiB)", large)
	}
	if large > small+256 {
		t.Fatalf("a pin allocates %d B at 32k rows but %d B at 1k: it grows with the table", large, small)
	}
}
