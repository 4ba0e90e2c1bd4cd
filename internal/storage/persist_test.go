package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"codb/internal/relation"
)

func openDurable(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dir = dir
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDurableRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	db.Insert("emp", emp(1, "ann"))
	db.Insert("emp", emp(2, "bob"))
	db.Delete("emp", emp(1, "ann"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Rel("emp") == nil {
		t.Fatal("schema lost")
	}
	if has(db2, "emp", emp(1, "ann")) {
		t.Error("deleted tuple recovered")
	}
	if !has(db2, "emp", emp(2, "bob")) {
		t.Error("inserted tuple lost")
	}
	if db2.Count("emp") != 1 {
		t.Errorf("Count = %d", db2.Count("emp"))
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	db.DefineRelation(empDef())
	for i := 0; i < 50; i++ {
		db.Insert("emp", emp(i, fmt.Sprintf("p%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the (reset) WAL.
	db.Insert("emp", emp(100, "late"))
	db.Close()

	// Snapshot exists and WAL is small.
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Count("emp") != 51 {
		t.Errorf("recovered Count = %d, want 51", db2.Count("emp"))
	}
	if !has(db2, "emp", emp(100, "late")) || !has(db2, "emp", emp(49, "p49")) {
		t.Error("recovered content wrong")
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{CheckpointEvery: 5})
	db.DefineRelation(empDef())
	for i := 0; i < 12; i++ {
		db.Insert("emp", emp(i, "x"))
	}
	db.Close()
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("auto checkpoint did not produce a snapshot: %v", err)
	}
	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Count("emp") != 12 {
		t.Errorf("recovered Count = %d", db2.Count("emp"))
	}
}

func TestRecoveryWithNullsAndAllTypes(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{SyncOnCommit: true})
	def := &relation.RelDef{Name: "mix", Attrs: []relation.Attr{
		{Name: "i", Type: relation.TInt},
		{Name: "f", Type: relation.TFloat},
		{Name: "s", Type: relation.TString},
		{Name: "b", Type: relation.TBool},
	}}
	db.DefineRelation(def)
	rows := []relation.Tuple{
		{relation.Int(1), relation.Float(2.5), relation.Str("x"), relation.Bool(true)},
		{relation.Null("p:1"), relation.Float(-1), relation.Null("p:2"), relation.Bool(false)},
	}
	for _, r := range rows {
		if _, err := db.Insert("mix", r); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	for _, r := range rows {
		if !has(db2, "mix", r) {
			t.Errorf("tuple %v lost", r)
		}
	}
}

// walSegments returns the segment file paths in dir, in index order
// (zero-padded names sort lexicographically); possibly empty.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal.*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{SyncOnCommit: true})
	db.DefineRelation(empDef())
	db.Insert("emp", emp(1, "a"))
	db.Insert("emp", emp(2, "b"))
	// No Close: a crash never checkpoints, the synced WAL is all there is.

	// Tear the final bytes of the WAL (crash mid-commit).
	segs := walSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	logPath := segs[len(segs)-1]
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if !has(db2, "emp", emp(1, "a")) {
		t.Error("intact commit lost")
	}
	if has(db2, "emp", emp(2, "b")) {
		t.Error("torn commit partially applied")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	db.DefineRelation(empDef())
	db.Insert("emp", emp(1, "a"))
	db.Checkpoint()
	db.Close()

	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestLegacyWALRefused: a directory holding the pre-segment single-file
// log — alone, or as a stray next to a current database — is refused at
// Open with an error naming the file, and the file is left untouched.
func TestLegacyWALRefused(t *testing.T) {
	writeLegacy := func(t *testing.T, dir string) string {
		// The old format: an 8-byte header (magic, version 1), then
		// length | CRC-32 | payload records. The refusal looks at the name.
		path := filepath.Join(dir, legacyLogName)
		data := append([]byte("cdbW"), 1, 0, 0, 0)
		for _, p := range [][]byte{encodeDDL(empDef()), encodeRows([]relation.Row{{Rel: "emp", Key: emp(1, "a").Key(), Tuple: emp(1, "a")}}, []bool{true})} {
			data = binary.LittleEndian.AppendUint32(data, uint32(len(p)))
			data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(p))
			data = append(data, p...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	refused := func(t *testing.T, dir, path string) {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("Open with %s = %v, want an error naming the file", path, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("the refused log changed: %v", err)
		}
	}
	t.Run("alone", func(t *testing.T) {
		dir := t.TempDir()
		refused(t, dir, writeLegacy(t, dir))
	})
	t.Run("beside-segments", func(t *testing.T) {
		dir := t.TempDir()
		db := openDurable(t, dir, Options{})
		db.DefineRelation(empDef())
		db.Insert("emp", emp(2, "b"))
		db.Close()
		refused(t, dir, writeLegacy(t, dir))
	})
}

func TestCheckpointIsNoopInMemory(t *testing.T) {
	db := MustOpenMem()
	db.DefineRelation(empDef())
	if err := db.Checkpoint(); err != nil {
		t.Errorf("memory checkpoint: %v", err)
	}
}

func TestRecoveryIdempotence(t *testing.T) {
	// Open/close repeatedly without writes; state must be stable.
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	db.DefineRelation(empDef())
	db.Insert("emp", emp(7, "seven"))
	db.Close()
	for i := 0; i < 3; i++ {
		db = openDurable(t, dir, Options{})
		if db.Count("emp") != 1 {
			t.Fatalf("pass %d: Count = %d", i, db.Count("emp"))
		}
		db.Close()
	}
}

// TestWALFailureSticks: once a WAL append fails (here at rotation, because a
// directory stands where the next segment file goes), every later commit
// fails too, with or without SyncOnCommit — even after the obstacle is gone.
// A commit appended behind the failed one would be numbered from the log's
// position, not the database's LSN, and recovery would bring it back under
// another commit's LSN. After a crash exactly the acknowledged commits come
// back, each at the LSN it was acknowledged with.
func TestWALFailureSticks(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 64, SyncOnCommit: sync}
			db := openDurable(t, dir, opts)
			if err := db.DefineRelation(empDef()); err != nil {
				t.Fatal(err)
			}
			obstacle := filepath.Join(dir, "wal.000002")
			if err := os.Mkdir(obstacle, 0o755); err != nil {
				t.Fatal(err)
			}
			type acked struct {
				tuple relation.Tuple
				lsn   uint64
			}
			var acks []acked
			var failed error
			for i := 0; i < 16 && failed == nil; i++ {
				tp := emp(i, "w")
				if _, failed = db.Insert("emp", tp); failed == nil {
					acks = append(acks, acked{tp, db.LSN()})
				}
			}
			if failed == nil || len(acks) == 0 {
				t.Fatalf("after %d acknowledged inserts, rotation error = %v", len(acks), failed)
			}
			if got := db.Count("emp"); got != len(acks)+1 {
				t.Fatalf("the failed commit is not published: %d rows, want %d", got, len(acks)+1)
			}
			if err := os.Remove(obstacle); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Insert("emp", emp(100, "after")); err == nil {
				t.Fatal("a commit after a failed WAL append was acknowledged")
			}
			db.crash()

			re := openDurable(t, dir, opts)
			defer re.Close()
			if got := re.Count("emp"); got != len(acks) {
				t.Fatalf("recovered %d rows, want the %d acknowledged", got, len(acks))
			}
			last := acks[len(acks)-1].lsn
			if re.LSN() != last {
				t.Fatalf("recovered LSN %d, want %d", re.LSN(), last)
			}
			for _, a := range acks {
				delta, ok := re.Changes("emp", a.lsn-1)
				if !ok || len(delta) == 0 || delta[0].Key() != a.tuple.Key() {
					t.Fatalf("LSN %d does not hold %v after recovery: %v (ok=%v)", a.lsn, a.tuple, delta, ok)
				}
			}
		})
	}
}
