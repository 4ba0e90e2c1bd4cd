package wal

import (
	"fmt"
	"sync"
	"testing"
)

// tempSeg opens a fresh segmented log in a temporary directory.
func tempSeg(t *testing.T) (*Segmented, string) {
	t.Helper()
	dir := t.TempDir()
	g, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, dir
}

func TestGroupCommitOrderAndReplay(t *testing.T) {
	l, dir := tempSeg(t)
	g := NewGroupCommitter(l)
	const n = 200
	waits := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		waits[i] = g.Commit([]byte(fmt.Sprintf("rec-%d", i)), i%3 == 0)
	}
	for i, w := range waits {
		if err := <-w; err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Replay order must equal enqueue order.
	i := 0
	l2, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(_ uint64, p []byte) error {
		if string(p) != fmt.Sprintf("rec-%d", i) {
			return fmt.Errorf("record %d = %q", i, p)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if i != n {
		t.Fatalf("replayed %d of %d", i, n)
	}
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	l, _ := tempSeg(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	const writers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := <-g.Commit([]byte(fmt.Sprintf("w%d-%d", w, i)), true); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Commits != writers*per {
		t.Fatalf("Commits = %d, want %d", st.Commits, writers*per)
	}
	// The point of the pipeline: concurrent sync commits share fsyncs.
	if st.Syncs >= st.Commits {
		t.Fatalf("no batching: %d fsyncs for %d commits", st.Syncs, st.Commits)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitFlushBarrier(t *testing.T) {
	l, _ := tempSeg(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	w := g.Commit([]byte("payload"), false)
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	// The record enqueued before Flush must be appended already.
	select {
	case err := <-w:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("Flush returned before the earlier record was committed")
	}
	if l.Size() <= segHeaderSize {
		t.Fatal("record not in the log after Flush")
	}
	g.Close()
}

func TestGroupCommitAfterCloseFails(t *testing.T) {
	l, _ := tempSeg(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-g.Commit([]byte("late"), false); err == nil {
		t.Fatal("commit after close succeeded")
	}
	// Double close is safe.
	if err := g.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestGroupCommitPoisonsAfterWriteFailure forces a batch write failure
// (closed file) and checks that no later commit is ever acked: appending
// past a possibly-torn record would strand acknowledged data behind a CRC
// break that stops recovery replay.
func TestGroupCommitPoisonsAfterWriteFailure(t *testing.T) {
	l, _ := tempSeg(t)
	g := NewGroupCommitter(l)
	l.Close() // every subsequent write fails
	if err := <-g.Commit([]byte("doomed"), true); err == nil {
		t.Fatal("commit to a closed log succeeded")
	}
	if err := <-g.Commit([]byte("after-failure"), true); err == nil {
		t.Fatal("commit acked after a failed batch (would strand data past a torn record)")
	}
	if err := g.Flush(); err == nil {
		t.Fatal("flush reported success on a poisoned pipeline")
	}
	if st := g.Stats(); st.Commits != 0 {
		t.Fatalf("failed batches counted as committed: %+v", st)
	}
	g.Close()
}

func TestAppendBatchEquivalentToAppends(t *testing.T) {
	la, pa := tempSeg(t)
	lb, pb := tempSeg(t)
	payloads := [][]byte{[]byte("one"), nil, []byte("three"), make([]byte, 1000)}
	for _, p := range payloads {
		if err := la.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.AppendBatch(payloads); err != nil {
		t.Fatal(err)
	}
	if la.Size() != lb.Size() {
		t.Fatalf("sizes diverge: %d vs %d", la.Size(), lb.Size())
	}
	la.Close()
	lb.Close()
	var ra, rb []string
	if _, err := OpenSegmented(pa, 0, SegmentedOptions{}, func(_ uint64, p []byte) error { ra = append(ra, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(pb, 0, SegmentedOptions{}, func(_ uint64, p []byte) error { rb = append(rb, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(payloads) || len(rb) != len(payloads) {
		t.Fatalf("replay counts: %d vs %d, want %d", len(ra), len(rb), len(payloads))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d diverges", i)
		}
	}
}

// TestGroupCommitAdaptiveWindowStat checks that synced batches feed the
// fsync-latency estimate and surface the chosen batch-formation window in
// the stats, bounded by the 1ms cap, while unsynced pipelines never choose
// a window (nothing to amortise).
func TestGroupCommitAdaptiveWindowStat(t *testing.T) {
	l, _ := tempSeg(t)
	defer l.Close()
	g := NewGroupCommitter(l)
	for i := 0; i < 8; i++ {
		if err := <-g.Commit([]byte(fmt.Sprintf("rec-%d", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Window <= 0 {
		t.Fatalf("no adaptive window chosen after %d synced batches", st.Syncs)
	}
	if st.Window > maxBatchWindow {
		t.Fatalf("window %v exceeds the %v cap", st.Window, maxBatchWindow)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	l2, _ := tempSeg(t)
	defer l2.Close()
	g2 := NewGroupCommitter(l2)
	for i := 0; i < 8; i++ {
		if err := <-g2.Commit([]byte("async"), false); err != nil {
			t.Fatal(err)
		}
	}
	if st := g2.Stats(); st.Window != 0 {
		t.Fatalf("async-only pipeline chose a window of %v", st.Window)
	}
	if err := g2.Close(); err != nil {
		t.Fatal(err)
	}
}
