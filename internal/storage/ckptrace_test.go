package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codb/internal/relation"
)

// TestBackgroundCheckpointCommitRace hammers commits from N goroutines
// while checkpoints run in a loop (under -race in CI). Invariants: the
// observed LSN never regresses, no commit blocks for longer than a bounded
// threshold (a checkpoint writes the published root and must never hold the
// writer lock for the whole snapshot write), and the state
// reopened after the storm is byte-identical to a quiescent checkpoint of
// it.
func TestBackgroundCheckpointCommitRace(t *testing.T) {
	// Generous wall-clock bound: this is an anti-stall assertion, not a
	// latency benchmark — it fails when a checkpoint blocks commits for
	// its whole duration, not when CI is slow.
	const maxCommitStall = 5 * time.Second
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}

	const writers = 6
	const perWriter = 300
	var maxStall atomic.Int64
	var wg sync.WaitGroup
	stopCkpt := make(chan struct{})
	ckptLoopDone := make(chan struct{})
	var ckpts atomic.Int64
	go func() {
		defer close(ckptLoopDone)
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			ckpts.Add(1)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastLSN := uint64(0)
			for i := 0; i < perWriter; i++ {
				start := time.Now()
				if _, err := db.Insert("emp", emp(w*100000+i, "race")); err != nil {
					t.Error(err)
					return
				}
				if d := time.Since(start); d.Nanoseconds() > maxStall.Load() {
					maxStall.Store(d.Nanoseconds())
				}
				// LSN monotonicity under concurrent checkpoints.
				if lsn := db.LSN(); lsn < lastLSN {
					t.Errorf("LSN regressed: %d after %d", lsn, lastLSN)
					return
				} else {
					lastLSN = lsn
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopCkpt)
	<-ckptLoopDone // the loop must not touch the DB past this point
	if t.Failed() {
		return
	}
	if got := time.Duration(maxStall.Load()); got > maxCommitStall {
		t.Fatalf("a commit stalled %v during background checkpoints (bound %v)", got, maxCommitStall)
	}
	if ckpts.Load() == 0 {
		t.Fatal("checkpoint loop never completed one checkpoint")
	}

	// Quiesce, checkpoint, and capture the reference state.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lsnQ := db.LSN()
	var keysQ []string
	db.Scan("emp", func(tu relation.Tuple) bool { keysQ = append(keysQ, tu.Key()); return true })
	if want := writers * perWriter; len(keysQ) != want {
		t.Fatalf("quiescent state has %d tuples, want %d", len(keysQ), want)
	}
	snapQ, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-restart the database must match, and a fresh quiescent
	// checkpoint must reproduce the snapshot byte for byte.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.LSN(); got != lsnQ {
		t.Fatalf("reopened LSN = %d, want %d", got, lsnQ)
	}
	i := 0
	re.Scan("emp", func(tu relation.Tuple) bool {
		if i >= len(keysQ) || tu.Key() != keysQ[i] {
			t.Fatalf("reopened tuple %d diverges", i)
			return false
		}
		i++
		return true
	})
	if i != len(keysQ) {
		t.Fatalf("reopened %d tuples, want %d", i, len(keysQ))
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapR, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapQ, snapR) {
		t.Fatalf("quiescent re-checkpoint diverges from the storm-era snapshot (%d vs %d bytes)",
			len(snapQ), len(snapR))
	}
}

// TestAutoCheckpointIsBackground verifies the CheckpointEvery trigger
// checkpoints without making the triggering commit (or its successors)
// wait for the snapshot write, and that the checkpoint does land.
func TestAutoCheckpointIsBackground(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Insert("emp", emp(i, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits out any in-flight background checkpoint and surfaces its
	// errors.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("auto checkpoint never wrote a snapshot: %v", err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Count("emp"); got != 100 {
		t.Fatalf("recovered Count = %d", got)
	}
}
