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
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"codb/internal/relation"
)

// crash simulates a kill -9: every file handle is dropped with no
// checkpoint, no final sync, no group-commit drain beyond what commits
// already awaited. The in-memory DB object is dead afterwards.
func (db *DB) crash() {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if db.group != nil {
		db.group.Close()
	}
	if db.log != nil {
		db.log.Close()
	}
}

// --- independent model ----------------------------------------------------

// crashModel is the oracle state: relation -> set of encoded tuple keys.
type crashModel struct {
	rels map[string]map[string]bool
	lsn  uint64
	ckpt uint64
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
	if version := binary.LittleEndian.Uint32(data[4:8]); version != 4 {
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
}

// --- harness --------------------------------------------------------------

type tortureSpec struct {
	name          string
	segmentBytes  int64
	checkpointMid bool
	writers       int
	relations     int // the writers of a multi-writer spec spread over this many
	deletes       bool
	trials        int
}

func TestCrashRecoveryTorture(t *testing.T) {
	specs := []tortureSpec{
		// Single writer, many tiny segments, multi-op transactions torn
		// mid-record, mid-segment and mid-rotation.
		{name: "segments", segmentBytes: 192, writers: 1, deletes: true, trials: 28},
		// A checkpoint in the middle: trials land before, inside and after
		// the snapshot-covered prefix, including inside retained segments.
		{name: "checkpoint", segmentBytes: 192, checkpointMid: true, writers: 1, deletes: true, trials: 28},
		// Concurrent committers through the group-commit pipeline: batches
		// torn mid-batch; the model replays whatever order the pipeline
		// actually wrote. A commit holds its relation's lock across the
		// fsync, so only writers to different relations can share a batch.
		{name: "group-commit", segmentBytes: 256, writers: 4, relations: 4, trials: 20},
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

	// commitHalf is the single-writer workload; multi-writer specs use the
	// concurrent path below instead.
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
	if spec.writers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < spec.writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if _, err := db.Insert(rels[w%len(rels)], emp(w*1000+i, "conc")); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if st := db.DetailedStats().GroupCommit; st.MaxBatch < 2 {
			t.Fatalf("no group-commit batch held more than one record (%+v): torn batches go untested", st)
		}
	} else {
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

	for i, off := range offsets {
		if off < 0 || off > total {
			continue
		}
		// A single writer's WAL stream is the same bytes every run, so its
		// trials are named by offset. Where concurrent writers' batches fall
		// decides where segments rotate, so theirs are named by index, which
		// -run can select again.
		name := fmt.Sprintf("off=%d", off)
		if spec.writers > 1 {
			name = fmt.Sprintf("trial=%02d", i)
		}
		t.Run(name, func(t *testing.T) {
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
			model := &crashModel{rels: make(map[string]map[string]bool)}
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
			re2.Close()
		})
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
