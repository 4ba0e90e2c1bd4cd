package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"codb/internal/relation"
)

func openEmp(t *testing.T) *DB {
	t.Helper()
	db := newEmpDB(t)
	t.Cleanup(func() { db.Close() })
	return db
}

// scanKeys returns the scan's keys, asserting key order.
func scanKeys(t *testing.T, db *DB, rel string) []string {
	t.Helper()
	var keys []string
	db.Scan(rel, func(tp relation.Tuple) bool {
		keys = append(keys, tp.Key())
		return true
	})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	return keys
}

// TestShardedOpsAgainstModel is the storage property test: a randomized
// insert/delete/reinsert trace runs against a model map; after every batch
// of ops the scan must equal the model's sorted keys, and a snapshot's
// probe of the secondary position — built, adopted by the next commit and
// maintained from then on — must agree with a filtered model scan: the
// delete-then-reinsert hazard. The shards= field of the subtest names is
// left from a retired storage layout; it keeps the names test histories know
// and picks each subtest's random trace.
func TestShardedOpsAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			db := openEmp(t)
			rnd := rand.New(rand.NewSource(int64(shards) * 7919))
			model := make(map[string]relation.Tuple)
			for step := 0; step < 40; step++ {
				tx := db.Begin()
				staged := make(map[string]bool) // key -> present after tx
				for k := range model {
					staged[k] = true
				}
				for op := 0; op < 25; op++ {
					tp := emp(rnd.Intn(60), fmt.Sprintf("n%d", rnd.Intn(7)))
					k := tp.Key()
					if rnd.Intn(3) == 2 {
						existed, err := tx.Delete("emp", tp)
						if err != nil {
							t.Fatal(err)
						}
						if existed != staged[k] {
							t.Fatalf("step %d: Delete existed=%v, model %v", step, existed, staged[k])
						}
						delete(staged, k)
					} else {
						fresh, err := tx.Insert("emp", tp)
						if err != nil {
							t.Fatal(err)
						}
						if fresh == staged[k] {
							t.Fatalf("step %d: Insert fresh=%v, model present=%v", step, fresh, staged[k])
						}
						staged[k] = true
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				model = make(map[string]relation.Tuple)
				for k := range staged {
					tp, err := relation.DecodeTuple([]byte(k), 2)
					if err != nil {
						t.Fatal(err)
					}
					model[k] = tp
				}

				// Scan == sorted model.
				keys := scanKeys(t, db, "emp")
				if len(keys) != len(model) {
					t.Fatalf("step %d: scan %d keys, model %d", step, len(keys), len(model))
				}
				for _, k := range keys {
					if _, ok := model[k]; !ok {
						t.Fatalf("step %d: scan surfaced key missing from model", step)
					}
				}
				if db.Count("emp") != len(model) {
					t.Fatalf("step %d: Count = %d, model %d", step, db.Count("emp"), len(model))
				}
				// Secondary index == filtered model (the delete-then-
				// reinsert consistency check).
				snap := db.Snapshot()
				for v := 0; v < 7; v++ {
					name := fmt.Sprintf("n%d", v)
					want := 0
					for _, tp := range model {
						if tp[1].Str == name {
							want++
						}
					}
					got := 0
					snap.ScanEq("emp", 1, relation.Str(name), func(tp relation.Tuple) bool {
						if tp[1].Str != name {
							t.Fatalf("step %d: ScanEq(%s) surfaced %v", step, name, tp)
						}
						got++
						return true
					})
					if got != want {
						t.Fatalf("step %d: ScanEq(%s) = %d rows, model %d", step, name, got, want)
					}
				}
			}
		})
	}
}

// rewriteSnapshot replaces the snapshot file in dir with the given version
// and body, under a valid header and CRC.
func rewriteSnapshot(t *testing.T, dir string, version uint32, body []byte) {
	t.Helper()
	var hdr [12]byte
	copy(hdr[:4], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, snapshotName), append(hdr[:], body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotBody reads the body of the snapshot file in dir, checking the
// header records the current version.
func snapshotBody(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapVersion {
		t.Fatalf("snapshot version = %d, want %d", v, snapVersion)
	}
	return data[12:]
}

// TestShardCountsAgree: a v4 snapshot whose leading field records a shard
// count other than 1 — as an engine that partitioned relations wrote them,
// tuples still in global key order — loads with scans, probes and LSN
// byte-identical to the same file recording 1, and the next checkpoint
// writes the identical body back with a count of 1. A recorded count of 0
// is refused.
func TestShardCountsAgree(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		tp := emp(rnd.Intn(150), fmt.Sprintf("p%d", rnd.Intn(10)))
		if rnd.Intn(4) == 3 {
			db.Delete("emp", tp)
		} else {
			db.Insert("emp", tp)
		}
	}
	wantKeys, wantLSN := scanKeys(t, db, "emp"), db.LSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	body := snapshotBody(t, dir)
	if recorded, _ := binary.Uvarint(body); recorded != 1 {
		t.Fatalf("recorded shard count = %d, want 1", recorded)
	}
	_, n := binary.Uvarint(body)
	rest := body[n:]
	probe := func(db *DB) (out []string) {
		for v := 0; v < 10; v++ {
			db.Snapshot().ScanEq("emp", 1, relation.Str(fmt.Sprintf("p%d", v)), func(tp relation.Tuple) bool {
				out = append(out, tp.Key())
				return true
			})
		}
		return out
	}
	var wantProbe []string
	for _, recorded := range []uint64{1, 4, 16} {
		rewriteSnapshot(t, dir, snapVersion, append(binary.AppendUvarint(nil, recorded), rest...))
		re := openDurable(t, dir, Options{})
		if got := scanKeys(t, re, "emp"); fmt.Sprint(got) != fmt.Sprint(wantKeys) {
			t.Fatalf("recorded %d: scan diverges from the live database", recorded)
		}
		if re.LSN() != wantLSN {
			t.Fatalf("recorded %d: LSN = %d, want %d", recorded, re.LSN(), wantLSN)
		}
		got := probe(re)
		if recorded == 1 {
			wantProbe = got
		} else if fmt.Sprint(got) != fmt.Sprint(wantProbe) {
			t.Fatalf("recorded %d: probes diverge", recorded)
		}
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		re.Close()
		if again := snapshotBody(t, dir); !bytes.Equal(again, body) {
			t.Fatalf("recorded %d: the next checkpoint wrote a different body", recorded)
		}
	}
	rewriteSnapshot(t, dir, snapVersion, append(binary.AppendUvarint(nil, 0), rest...))
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("a recorded shard count of 0 was accepted")
	}
}

// TestShardedRecoveryByteIdentical: recovery over a snapshot plus WAL
// replay (no final checkpoint) reproduces the live database's scan byte for
// byte, with its LSN.
func TestShardedRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		db.Insert("emp", emp(i, fmt.Sprintf("p%d", i%11)))
	}
	db.Checkpoint()
	// Post-checkpoint commits exercise WAL replay on top of the snapshot.
	for i := 200; i < 260; i++ {
		db.Insert("emp", emp(i, "wal"))
	}
	db.Delete("emp", emp(3, "p3"))
	wantKeys, wantLSN := scanKeys(t, db, "emp"), db.LSN()
	db.crash()

	re := openDurable(t, dir, Options{})
	defer re.Close()
	if got := scanKeys(t, re, "emp"); fmt.Sprint(got) != fmt.Sprint(wantKeys) {
		t.Fatalf("recovered %d keys diverge from the live %d", len(got), len(wantKeys))
	}
	if re.LSN() != wantLSN {
		t.Fatalf("recovered LSN = %d, want %d", re.LSN(), wantLSN)
	}
}

// TestSnapshotOldVersionsRefused feeds the engine hand-built snapshots in
// the retired formats — v1 (schema and tuples), v2 (plus the commit LSN),
// v3 (plus a leading shard count) — and requires each to be refused with
// the unsupported-version error rather than loaded.
func TestSnapshotOldVersionsRefused(t *testing.T) {
	tuples := []relation.Tuple{emp(1, "a"), emp(2, "b")}
	v1 := binary.AppendUvarint(nil, 1)
	v1 = encodeDef(v1, empDef())
	v1 = binary.AppendUvarint(v1, uint64(len(tuples)))
	for _, tp := range tuples {
		v1 = putBytes(v1, []byte(tp.Key()))
	}
	v2 := binary.AppendUvarint(append([]byte(nil), v1...), 41)
	v3 := append(binary.AppendUvarint(nil, 1), v2...)
	for version, body := range map[uint32][]byte{1: v1, 2: v2, 3: v3} {
		dir := t.TempDir()
		rewriteSnapshot(t, dir, version, body)
		_, err := Open(Options{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("v%d snapshot: Open = %v, want unsupported snapshot version", version, err)
		}
	}
}

// TestConcurrentMultiShardCommits hammers the commit protocol under -race:
// concurrent transactions spanning several relations, snapshot readers and
// Changes consumers. Every snapshot must be a consistent cut (multi-tuple
// commits are all-or-nothing across relations) and watermark-chained
// Changes must lose no committed tuple (the protocol is at-least-once; set
// semantics absorb re-fetches, as the export layer does).
func TestConcurrentMultiShardCommits(t *testing.T) {
	db := MustOpenMem()
	defer db.Close()
	rels := []string{"c", "a", "b"} // a commit's lock order is not its op order
	for _, rel := range rels {
		if err := db.DefineRelation(&relation.RelDef{Name: rel, Attrs: empDef().Attrs}); err != nil {
			t.Fatal(err)
		}
	}
	const writers, per, batch = 4, 60, 5
	stop := make(chan struct{})
	var observers sync.WaitGroup
	// Snapshot readers: every view must hold a multiple of `batch` tuples.
	for r := 0; r < 2; r++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				n := 0
				for _, rel := range rels {
					n += snap.Count(rel)
				}
				if n%batch != 0 {
					t.Errorf("snapshot saw %d tuples: torn multi-relation commit", n)
					return
				}
			}
		}()
	}
	// Watermark chasers, one per relation, following the export layer's
	// protocol: read the visible LSN first, fetch the delta since the
	// previous watermark, advance the watermark to the pre-fetch LSN.
	seen := make(map[string]map[string]bool)
	for _, rel := range rels {
		seen[rel] = make(map[string]bool)
		observers.Add(1)
		go func(seen map[string]bool) {
			defer observers.Done()
			var w uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := db.LSN()
				delta, ok := db.Changes(rel, w)
				if !ok {
					t.Error("history lost without deletes or truncation")
					return
				}
				for _, tp := range delta {
					seen[tp.Key()] = true
				}
				w = cur
			}
		}(seen[rel])
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < per; i++ {
				tx := db.Begin()
				for j := 0; j < batch; j++ {
					if _, err := tx.Insert(rels[(w+j)%len(rels)], emp(w*100_000+i*batch+j, "x")); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	observers.Wait()
	// Quiescent drain: everything not yet chased arrives now.
	chased, counted := 0, 0
	for _, rel := range rels {
		delta, ok := db.Changes(rel, 0)
		if !ok {
			t.Fatal("history lost at quiescence")
		}
		for _, tp := range delta {
			seen[rel][tp.Key()] = true
		}
		chased += len(seen[rel])
		counted += db.Count(rel)
	}
	if chased != writers*per*batch {
		t.Fatalf("Changes chains saw %d tuples, want %d", chased, writers*per*batch)
	}
	if counted != writers*per*batch {
		t.Fatalf("Count = %d, want %d", counted, writers*per*batch)
	}
	if got := db.LSN(); got != uint64(len(rels)+writers*per) { // DDL + commits
		t.Fatalf("visible LSN = %d, want %d", got, len(rels)+writers*per)
	}
}

// TestGroupCommitDurableMultiWriter commits from many goroutines with
// SyncOnCommit and verifies recovery sees everything, batching occurred,
// and the WAL replays in LSN order.
func TestGroupCommitDurableMultiWriter(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	const writers, per = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Insert("emp", emp(w*1000+i, "d")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.DetailedStats()
	if !st.GroupCommitEnabled {
		t.Fatal("group commit not enabled on a durable database")
	}
	if st.GroupCommit.Commits < writers*per {
		t.Fatalf("group commits = %d, want >= %d", st.GroupCommit.Commits, writers*per)
	}
	lsn := db.LSN()
	// Crash-style reopen: every sync-on-commit transaction is already
	// durable, no checkpoint.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if re.Count("emp") != writers*per {
		t.Fatalf("recovered %d tuples, want %d", re.Count("emp"), writers*per)
	}
	if re.LSN() != lsn {
		t.Fatalf("recovered LSN %d, want %d", re.LSN(), lsn)
	}
	re.Close()
	db.Close()
}

// TestDetailedStats sanity-checks the per-relation report.
func TestDetailedStats(t *testing.T) {
	db := openEmp(t)
	for i := 0; i < 40; i++ {
		db.Insert("emp", emp(i, "s"))
	}
	st := db.DetailedStats()
	if len(st.Relations) != 1 || st.Relations[0].Name != "emp" {
		t.Fatalf("Relations = %+v", st.Relations)
	}
	if rs := st.Relations[0]; rs.Tuples != 40 || rs.Bytes == 0 {
		t.Fatalf("emp: %d tuples, %d bytes", rs.Tuples, rs.Bytes)
	}
	if st.GroupCommitEnabled {
		t.Fatal("memory-only database claims a group committer")
	}
}
