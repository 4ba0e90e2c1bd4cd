package storage

import (
	"maps"
	"testing"
)

// TestMarksRideOnRecords: a staged mark becomes visible and durable with the
// next record — a commit, or LogMarks' record of its own — and a crash loses
// one that never got a record. A commit that changes nothing writes no
// record, so its staged marks keep waiting. 0 deletes a mark. Close logs
// what is staged, and a checkpoint keeps the marks once the WAL segments
// that logged them are pruned.
func TestMarksRideOnRecords(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	want := func(db *DB, what string, m map[string]uint64) {
		t.Helper()
		if got := db.Marks(); !maps.Equal(got, m) {
			t.Fatalf("%s: marks %v, want %v", what, got, m)
		}
	}
	db.SetMark("a", 1)
	want(db, "staged", nil)
	db.Insert("emp", emp(1, "x"))
	want(db, "after a commit", map[string]uint64{"a": 1})

	db.SetMark("b", 2)
	if _, err := db.Insert("emp", emp(1, "x")); err != nil { // a duplicate: no record
		t.Fatal(err)
	}
	want(db, "after a no-op commit", map[string]uint64{"a": 1})
	lsn := db.LSN()
	if err := db.LogMarks(); err != nil {
		t.Fatal(err)
	}
	if db.LSN() != lsn+1 {
		t.Fatalf("a marks record took LSN %d, want %d", db.LSN(), lsn+1)
	}
	want(db, "after LogMarks", map[string]uint64{"a": 1, "b": 2})
	db.SetMark("a", 0)
	db.LogMarks()
	db.SetMark("c", 3) // never logged
	db.crash()

	re := openDurable(t, dir, Options{})
	want(re, "after a crash", map[string]uint64{"b": 2})
	re.SetMark("c", 4)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re = openDurable(t, dir, Options{RetainSegments: -1})
	want(re, "after Close", map[string]uint64{"b": 2, "c": 4})
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, dir); len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want the active one", len(segs))
	}
	re.crash()
	re = openDurable(t, dir, Options{})
	defer re.Close()
	want(re, "from the checkpoint", map[string]uint64{"b": 2, "c": 4})
}
