package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// openSeg opens a segmented WAL collecting replayed records.
func openSeg(t *testing.T, dir string, base uint64, opts SegmentedOptions) (*Segmented, map[uint64]string) {
	t.Helper()
	got := make(map[uint64]string)
	g, err := OpenSegmented(dir, base, opts, func(lsn uint64, p []byte) error {
		got[lsn] = string(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, got
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestSegmentedAppendReplayLSNs(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	for i := 1; i <= 5; i++ {
		if err := g.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	g.Close()

	g2, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i := 1; i <= 5; i++ {
		if got[uint64(i)] != fmt.Sprintf("rec-%d", i) {
			t.Errorf("lsn %d = %q", i, got[uint64(i)])
		}
	}
	if st := g2.Stats(); st.NextLSN != 6 {
		t.Errorf("NextLSN = %d, want 6", st.NextLSN)
	}
}

func TestSegmentedRotation(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 6; i++ {
		if err := g.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d after 6 oversized appends, want >= 3", st.Segments)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
	g.Close()

	// Recovery across segments preserves LSNs and contiguity.
	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	defer g2.Close()
	if len(got) != 6 {
		t.Fatalf("replayed %d of 6", len(got))
	}
	for i := uint64(1); i <= 6; i++ {
		if _, ok := got[i]; !ok {
			t.Errorf("lsn %d missing from replay", i)
		}
	}
}

func TestSegmentedBatchNeverSplits(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	batch := [][]byte{make([]byte, 30), make([]byte, 30), make([]byte, 30)}
	if err := g.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments != 1 {
		t.Fatalf("batch split across %d segments", st.Segments)
	}
	// The next batch rotates first.
	if err := g.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", st.Segments)
	}
	g.Close()
	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	defer g2.Close()
	if len(got) != 6 {
		t.Fatalf("replayed %d of 6", len(got))
	}
}

func TestSegmentedTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	last := filepath.Join(dir, names[len(names)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	if len(got) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(got))
	}
	// Appending after truncation reuses the torn record's LSN.
	if err := g2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	g2.Close()
	_, got = openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	if got[4] != "fresh" {
		t.Fatalf("lsn 4 = %q, want the re-appended record", got[4])
	}
}

func TestSegmentedTornMiddleSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	first := filepath.Join(dir, names[0])
	info, _ := os.Stat(first)
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestSegmentedCrashMidRotationDiscardsHeaderlessTail(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("kept"))
	g.Close()
	// Simulate a crash between creating the next segment and writing its
	// header.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte("cd"), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g2.Close()
	if len(got) != 1 || got[1] != "kept" {
		t.Fatalf("replay = %v", got)
	}
	if err := g2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedReplaySkipGap(t *testing.T) {
	// Records covered by the checkpoint may be missing (pruned segments);
	// recovery accepts the gap only below base.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	os.Remove(filepath.Join(dir, names[0]))

	// The first segment held lsn 1; with base >= 1 the gap is legal.
	if _, err := OpenSegmented(dir, 1, SegmentedOptions{}, nil); err != nil {
		t.Fatalf("open with covered gap: %v", err)
	}
	// Without checkpoint coverage the gap is a hole in acknowledged data.
	os.Remove(filepath.Join(dir, names[1]))
	if _, err := OpenSegmented(dir, 1, SegmentedOptions{}, nil); err == nil {
		t.Fatal("uncovered lsn gap accepted")
	}
}

func TestSegmentedPruneAndReadRange(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	for i := 1; i <= 10; i++ {
		if err := g.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Close()
	if st := g.Stats(); st.Segments < 3 {
		t.Fatalf("want several segments, got %d", st.Segments)
	}

	var got []string
	err := g.ReadRange(3, 7, func(lsn uint64, p []byte) error {
		if want := fmt.Sprintf("rec-%d", lsn); string(p) != want {
			return fmt.Errorf("lsn %d = %q", lsn, p)
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil || len(got) != 5 {
		t.Fatalf("ReadRange(3,7) = %v, %d records", err, len(got))
	}

	// Beyond the written tail is unavailable.
	if err := g.ReadRange(10, 11, nil); !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("ReadRange past tail = %v", err)
	}

	// Prune everything below 6, retaining nothing.
	if n := g.Prune(6, 0); n == 0 {
		t.Fatal("nothing pruned")
	}
	if err := g.ReadRange(1, 3, nil); !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("pruned range still served: %v", err)
	}
	// The unpruned tail still serves.
	count := 0
	if err := g.ReadRange(g.FirstLSN(), 10, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatalf("tail range: %v", err)
	}
	if count == 0 {
		t.Fatal("tail range served no records")
	}
}

func TestSegmentedPruneRetention(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	for i := 1; i <= 20; i++ {
		g.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	defer g.Close()
	before := g.Stats().Segments
	g.Prune(20, 2)
	st := g.Stats()
	if st.Segments >= before {
		t.Fatalf("retention pruned nothing: %d -> %d", before, st.Segments)
	}
	// Two sealed pre-checkpoint segments survive for history serving.
	count := 0
	if err := g.ReadRange(st.FirstLSN, 20, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatalf("retained range: %v", err)
	}
	if count == 0 {
		t.Fatal("retained segments served nothing")
	}
	if st.FirstLSN == 1 {
		t.Fatal("prune with retention kept everything")
	}
}

func TestSegmentedSnapshotAheadOfLogRotates(t *testing.T) {
	// A synced snapshot can outlive an unsynced WAL tail. Reopening with
	// base beyond the log's last record must not renumber new appends.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("r1"))
	g.Append([]byte("r2"))
	g.Close()

	g2, _ := openSeg(t, dir, 5, SegmentedOptions{}) // checkpoint at lsn 5, log ends at 2
	if st := g2.Stats(); st.NextLSN != 6 {
		t.Fatalf("NextLSN = %d, want 6", st.NextLSN)
	}
	g2.Append([]byte("r6"))
	g2.Close()

	_, got := openSeg(t, dir, 5, SegmentedOptions{})
	if got[6] != "r6" {
		t.Fatalf("lsn 6 = %q; replay = %v", got[6], got)
	}
}

func TestSegmentedGroupCommitter(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 128})
	gc := NewGroupCommitter(g)
	const n = 60
	// Waiting each commit out forces many small batches, so batches cross
	// rotation boundaries.
	for i := 0; i < n; i++ {
		if err := <-gc.Commit([]byte(fmt.Sprintf("rec-%d", i+1)), i%4 == 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments < 2 {
		t.Fatalf("group commits never rotated: %d segments", st.Segments)
	}
	g.Close()

	_, got := openSeg(t, dir, 0, SegmentedOptions{})
	if len(got) != n {
		t.Fatalf("replayed %d of %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if got[uint64(i)] != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("lsn %d = %q (order broken)", i, got[uint64(i)])
		}
	}
}

func TestSegmentedCorruptHeaderLSNRefused(t *testing.T) {
	// The first-record LSN decides every record's identity; a bit-flip in
	// it (downward would silently renumber records into the
	// checkpoint-covered range) must fail the header CRC.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	target := filepath.Join(dir, names[1]) // non-last: damage, not mid-rotation
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0x04 // flip a low bit of the first-LSN field
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); err == nil {
		t.Fatal("corrupt segment header LSN accepted")
	}
}

func TestSegmentedEmptyDirCreatesFirstSegment(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 41, SegmentedOptions{})
	defer g.Close()
	st := g.Stats()
	if st.Segments != 1 || st.NextLSN != 42 {
		t.Fatalf("fresh log stats = %+v", st)
	}
	if names := segFiles(t, dir); len(names) != 1 || names[0] != segName(1) {
		t.Fatalf("segment files = %v", names)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("a"))
	g.Close()

	g, _ = openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("b"))
	g.Close()

	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if len(got) != 2 || got[1] != "a" || got[2] != "b" {
		t.Errorf("replay = %v", got)
	}
}

func TestMidFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("aaaa"))
	g.Append([]byte("bbbb"))
	g.Close()

	// Flip a payload byte of the FIRST record: data follows it, so this is
	// corruption, not a torn tail.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+recPrefix] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	// A segment with a newer one after it is no crash mid-rotation.
	path := filepath.Join(dir, segFiles(t, dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "XXXX")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestApplyErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("x"))
	g.Close()
	boom := errors.New("boom")
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(uint64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want wrapped boom", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append(nil)
	g.Append([]byte("after-empty"))
	g.Close()
	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if v, ok := got[1]; len(got) != 2 || !ok || v != "" || got[2] != "after-empty" {
		t.Errorf("replay = %q", got)
	}
}

func TestManyRecords(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 16 << 10})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := g.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	count := 0
	g, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(lsn uint64, p []byte) error {
		if string(p) != fmt.Sprintf("record-%d", count) || lsn != uint64(count+1) {
			return fmt.Errorf("record %d = %q at lsn %d", count, p, lsn)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if count != n {
		t.Fatalf("replayed %d of %d", count, n)
	}
}

func TestCreateAppendReplay(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	want := []string{"one", "two", "three"}
	for _, s := range want {
		if err := g.Append([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	g2, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOpenMissingCreates(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if g.Size() != segHeaderSize {
		t.Errorf("fresh log size = %d", g.Size())
	}
	if st := g.Stats(); st.NextLSN != 1 {
		t.Errorf("NextLSN = %d, want 1", st.NextLSN)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("intact"))
	g.Append([]byte("will-be-torn"))
	g.Close()

	// Chop bytes off the end of the only segment, simulating a crash
	// mid-write.
	path := filepath.Join(dir, segName(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	if len(got) != 1 || got[1] != "intact" {
		t.Fatalf("replay after torn tail = %v", got)
	}
	// The torn record must be gone: append and re-read.
	g.Append([]byte("new"))
	g.Close()
	g, got = openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if len(got) != 2 || got[2] != "new" {
		t.Fatalf("replay after re-append = %v", got)
	}
}

func TestTruncatedHeaderRecreated(t *testing.T) {
	dir := t.TempDir()
	// The only segment lost its header to a crash right after creation.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("cd"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if len(got) != 0 {
		t.Fatalf("replay = %v", got)
	}
	if g.Size() != segHeaderSize {
		t.Errorf("size = %d", g.Size())
	}
	if err := g.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}
