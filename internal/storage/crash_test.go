package storage

// Crash-recovery torture harness: committed workloads run against a real
// database directory, the process "dies" at randomized byte offsets in the
// WAL stream (inside records, at segment boundaries, mid-rotation, before
// and after checkpoints), and every recovered database is compared against
// an independent model that replays exactly the durable prefix.
//
// The model is deliberately not the engine: it re-parses the snapshot file
// and the segment files with its own minimal decoders, so a bug in the
// engine's recovery path cannot cancel itself out in the expectation.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"codb/internal/relation"
)

// crash simulates a kill -9: every file handle is dropped with no
// checkpoint and no final sync beyond what commits already did. The
// in-memory DB object is dead afterwards.
func (db *DB) crash() {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.writeMu.Lock()
	db.closed.Store(true)
	db.writeMu.Unlock()
	if db.log != nil {
		db.log.Close()
	}
}

// --- independent model ----------------------------------------------------

// crashModel is the oracle state: relation -> set of encoded tuple keys,
// and the marks in force.
type crashModel struct {
	rels  map[string]map[string]bool
	marks map[string]uint64
	lsn   uint64
	ckpt  uint64
}

type modelReader struct {
	b   []byte
	off int
}

func (r *modelReader) uvarint(t *testing.T) uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		t.Fatalf("model: bad uvarint at %d", r.off)
	}
	r.off += n
	return v
}

func (r *modelReader) bytes(t *testing.T) []byte {
	n := int(r.uvarint(t))
	if r.off+n > len(r.b) {
		t.Fatalf("model: truncated bytes at %d", r.off)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// skipDef walks one relation definition (name, attr count, attrs).
func (r *modelReader) skipDef(t *testing.T) string {
	name := string(r.bytes(t))
	n := int(r.uvarint(t))
	for i := 0; i < n; i++ {
		r.bytes(t) // attr name
		r.off++    // attr type byte
	}
	return name
}

// loadModelSnapshot parses the snapshot file with the test's own decoder.
func loadModelSnapshot(t *testing.T, path string, m *crashModel) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 12 || string(data[:4]) != "cdbS" {
		t.Fatalf("model: %s is not a snapshot", path)
	}
	if version := binary.LittleEndian.Uint32(data[4:8]); version != 5 {
		t.Fatalf("model: snapshot version %d", version)
	}
	r := &modelReader{b: data[12:]}
	r.uvarint(t) // shard count
	nrels := int(r.uvarint(t))
	names := make([]string, 0, nrels)
	for i := 0; i < nrels; i++ {
		names = append(names, r.skipDef(t))
	}
	for _, name := range names {
		set := make(map[string]bool)
		count := int(r.uvarint(t))
		for i := 0; i < count; i++ {
			set[string(r.bytes(t))] = true
		}
		m.rels[name] = set
	}
	m.lsn = r.uvarint(t)
	m.ckpt = r.uvarint(t)
	r.modelMarks(t, m)
}

// modelMarks applies a count-prefixed list of (key, value) marks; 0 deletes.
func (r *modelReader) modelMarks(t *testing.T, m *crashModel) {
	n := int(r.uvarint(t))
	for i := 0; i < n; i++ {
		k := string(r.bytes(t))
		if v := r.uvarint(t); v == 0 {
			delete(m.marks, k)
		} else {
			m.marks[k] = v
		}
	}
}

// replayModelSegments parses the surviving segment files in order and
// applies every intact record with LSN above the checkpoint, stopping at
// the first torn record — the durable prefix, by definition.
func replayModelSegments(t *testing.T, dir string, m *crashModel) {
	for _, path := range walSegments(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 20 || string(data[:4]) != "cdbW" ||
			crc32.ChecksumIEEE(data[:16]) != binary.LittleEndian.Uint32(data[16:20]) {
			return // headerless/torn-header tail segment: nothing durable inside
		}
		lsn := binary.LittleEndian.Uint64(data[8:16])
		off := 20
		for off < len(data) {
			if off+8 > len(data) {
				return // torn framing: durable prefix ends here
			}
			length := int(binary.LittleEndian.Uint32(data[off : off+4]))
			crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
			if off+8+length > len(data) {
				return // torn payload
			}
			payload := data[off+8 : off+8+length]
			if crc32.ChecksumIEEE(payload) != crc {
				return // torn record
			}
			if lsn > m.ckpt {
				applyModelRecord(t, m, payload)
				m.lsn = lsn
			}
			lsn++
			off += 8 + length
		}
		// Clean segment end: continue into the next segment.
	}
}

func applyModelRecord(t *testing.T, m *crashModel, payload []byte) {
	r := &modelReader{b: payload}
	count := int(r.uvarint(t))
	for i := 0; i < count; i++ {
		kind := r.b[r.off]
		r.off++
		switch kind {
		case 3: // DDL
			name := r.skipDef(t)
			if m.rels[name] == nil {
				m.rels[name] = make(map[string]bool)
			}
		case 1, 2: // insert, delete
			rel := string(r.bytes(t))
			key := string(r.bytes(t))
			if m.rels[rel] == nil {
				t.Fatalf("model: op on undeclared relation %q", rel)
			}
			if kind == 1 {
				m.rels[rel][key] = true
			} else {
				delete(m.rels[rel], key)
			}
		default:
			t.Fatalf("model: bad op kind %d", kind)
		}
	}
	if r.off < len(r.b) {
		r.modelMarks(t, m)
	}
}

// modelRecordEnds returns the offset in the concatenated segment stream at
// which each intact record ends.
func modelRecordEnds(t *testing.T, segPaths []string) []int64 {
	var ends []int64
	var base int64
	for _, path := range segPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 20; off+8 <= len(data); {
			off += 8 + int(binary.LittleEndian.Uint32(data[off:off+4]))
			ends = append(ends, base+int64(off))
		}
		base += int64(len(data))
	}
	return ends
}

// --- harness --------------------------------------------------------------

type tortureSpec struct {
	name          string
	segmentBytes  int64
	checkpointMid bool
	// relations > 1 selects the burst workload: every commit is one keyed
	// batch with a row in each of this many relations.
	relations int
	deletes   bool
	// marks selects the marks workload: inserts that carry staged marks,
	// marks-only records that advance or reset them, crashed at every
	// record boundary.
	marks  bool
	trials int
}

func TestCrashRecoveryTorture(t *testing.T) {
	specs := []tortureSpec{
		// Many tiny segments, multi-op commits torn mid-record,
		// mid-segment and mid-rotation.
		{name: "segments", segmentBytes: 192, deletes: true, trials: 28},
		// A checkpoint in the middle: trials land before, inside and after
		// the snapshot-covered prefix, including inside retained segments.
		{name: "checkpoint", segmentBytes: 192, checkpointMid: true, deletes: true, trials: 28},
		// Every record spans four relations: a record torn anywhere must
		// lose its rows in all four.
		{name: "burst", segmentBytes: 256, relations: 4, trials: 20},
		// Marks ride on commits and on records of their own; a crash keeps
		// those of the durable prefix, none ahead of its LSN, and every
		// reset in it.
		{name: "marks", segmentBytes: 192, marks: true, checkpointMid: true},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			tortureRun(t, spec)
		})
	}
}

func tortureRun(t *testing.T, spec tortureSpec) {
	srcDir := t.TempDir()
	db, err := Open(Options{
		Dir:          srcDir,
		SyncOnCommit: true,
		SegmentBytes: spec.segmentBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels := []string{"emp"}
	for i := 1; i < spec.relations; i++ {
		rels = append(rels, fmt.Sprintf("emp%d", i))
	}
	for _, rel := range rels {
		if err := db.DefineRelation(&relation.RelDef{Name: rel, Attrs: empDef().Attrs}); err != nil {
			t.Fatal(err)
		}
	}

	// commitHalf is the one-relation workload; burst specs commit keyed
	// batches across every relation instead.
	commitHalf := func(base int) {
		for i := base; i < base+30; i++ {
			switch {
			case i%7 == 3:
				if _, err := db.InsertMany("emp", []relation.Tuple{
					emp(i, "batch"), emp(i+1000, "batch"), emp(i+2000, "batch"),
				}); err != nil {
					t.Fatal(err)
				}
			case spec.deletes && i%9 == 5 && i > base:
				if _, err := db.Delete("emp", emp(i-1, fmt.Sprintf("p%d", i-1))); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := db.Insert("emp", emp(i, fmt.Sprintf("p%d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// commitMarks is the marks workload: three keys advanced to the LSN
	// before a commit that carries them, logged on their own, and reset.
	commitMarks := func(base int) {
		for i := base; i < base+30; i++ {
			key := fmt.Sprintf("link%d", i%3)
			switch i % 5 {
			case 1:
				db.SetMark(key, db.LSN()) // rides on the insert below
			case 3:
				db.SetMark(key, db.LSN())
				if err := db.LogMarks(); err != nil {
					t.Fatal(err)
				}
			case 4:
				db.SetMark(key, 0) // a reset is logged when it happens
				if err := db.LogMarks(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Insert("emp", emp(i, fmt.Sprintf("p%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	switch {
	case spec.marks:
		commitMarks(0)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commitMarks(100)
		db.SetMark("staged", db.LSN()) // never logged: a crash loses it
	case spec.relations > 1:
		for i := 0; i < 25; i++ {
			rows := make([]relation.Row, len(rels))
			for r, rel := range rels {
				tp := emp(r*1000+i, "burst")
				rows[r] = relation.Row{Rel: rel, Key: tp.Key(), Tuple: tp}
			}
			if _, err := db.InsertKeyed(rows); err != nil {
				t.Fatal(err)
			}
		}
	default:
		commitHalf(0)
		if spec.checkpointMid {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		commitHalf(100)
	}
	db.crash()

	// The WAL byte stream: surviving segments in order.
	segPaths := walSegments(t, srcDir)
	sizes := make([]int64, len(segPaths))
	var total int64
	for i, p := range segPaths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = info.Size()
		total += sizes[i]
	}

	// Kill offsets: segment boundaries (exact, ±1, inside the header),
	// the stream ends, and seeded random interior points.
	offsets := []int64{0, 1, total, total - 1, total - 3}
	var bound int64
	for _, s := range sizes {
		offsets = append(offsets, bound, bound+1, bound+9, bound+17, bound+s-1)
		bound += s
	}
	rnd := rand.New(rand.NewSource(int64(len(spec.name)) * 7919))
	for len(offsets) < 5+5*len(sizes)+spec.trials {
		offsets = append(offsets, rnd.Int63n(total+1))
	}
	if spec.marks {
		offsets = append(offsets, modelRecordEnds(t, segPaths)...)
		slices.Sort(offsets)
		offsets = slices.Compact(offsets)
	}

	for _, off := range offsets {
		if off < 0 || off > total {
			continue
		}
		// One writer's WAL stream is the same bytes every run, so trials
		// are named by offset, which -run can select again.
		t.Run(fmt.Sprintf("off=%d", off), func(t *testing.T) {
			t.Logf("killed at WAL byte %d of %d", off, total)
			trialDir := t.TempDir()
			if data, err := os.ReadFile(filepath.Join(srcDir, snapshotName)); err == nil {
				if err := os.WriteFile(filepath.Join(trialDir, snapshotName), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Truncate the concatenated stream at off: whole earlier
			// segments, a partial one at the cut, nothing after.
			remaining := off
			for i, p := range segPaths {
				if remaining <= 0 {
					break
				}
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				n := int64(len(data))
				if remaining < n {
					n = remaining
				}
				dst := filepath.Join(trialDir, filepath.Base(segPaths[i]))
				if err := os.WriteFile(dst, data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				remaining -= n
			}

			// Oracle: parse the durable prefix independently.
			model := &crashModel{rels: make(map[string]map[string]bool), marks: make(map[string]uint64)}
			loadModelSnapshot(t, filepath.Join(trialDir, snapshotName), model)
			replayModelSegments(t, trialDir, model)

			re, err := Open(Options{Dir: trialDir})
			if err != nil {
				t.Fatalf("recovery failed at offset %d: %v", off, err)
			}
			compareWithModel(t, re, model)
			if got := re.LSN(); got != model.lsn {
				t.Fatalf("recovered LSN = %d, model %d", got, model.lsn)
			}
			compareMarks(t, re, model)

			// The recovered database must keep working: commit, crash
			// again, recover again.
			if model.rels["emp"] != nil {
				if _, err := re.Insert("emp", emp(999999, "post-crash")); err != nil {
					t.Fatalf("insert after recovery: %v", err)
				}
				model.rels["emp"][emp(999999, "post-crash").Key()] = true
				model.lsn++
			}
			re.crash()
			re2, err := Open(Options{Dir: trialDir})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			compareWithModel(t, re2, model)
			compareMarks(t, re2, model)
			re2.Close()
		})
	}
}

// compareMarks asserts the recovered marks are the model's — so no reset
// in the durable prefix is undone and no staged mark survives — and that no
// mark exceeds the recovered LSN.
func compareMarks(t *testing.T, db *DB, m *crashModel) {
	t.Helper()
	got := db.Marks()
	if !maps.Equal(got, m.marks) {
		t.Fatalf("recovered marks %v, model %v", got, m.marks)
	}
	for k, v := range got {
		if v > db.LSN() {
			t.Fatalf("mark %s = %d is ahead of the recovered LSN %d", k, v, db.LSN())
		}
	}
}

// compareWithModel asserts the recovered database holds exactly the
// model's tuples.
func compareWithModel(t *testing.T, db *DB, m *crashModel) {
	t.Helper()
	inst := db.Instance()
	for rel, want := range m.rels {
		var got []string
		db.Scan(rel, func(tu relation.Tuple) bool {
			got = append(got, tu.Key())
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: recovered %d tuples, model has %d", rel, len(got), len(want))
		}
		for _, k := range got {
			if !want[k] {
				t.Fatalf("%s: recovered tuple %q not in model", rel, k)
			}
		}
	}
	for rel := range inst {
		if m.rels[rel] == nil {
			t.Fatalf("recovered relation %q unknown to model", rel)
		}
	}
}
