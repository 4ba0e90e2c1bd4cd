package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Segmented is the segmented write-ahead log: an ordered set of numbered
// append-only segment files ("wal.000017"-style names) in one directory.
// Appends go to the active (highest-numbered) segment and rotate to a fresh
// one once it reaches Options.SegmentBytes. Each segment's header carries
// the LSN of its first record, so recovery needs no manifest: segments are
// discovered by name, ordered by index, and every record's LSN is the
// header LSN plus its position — the storage engine appends exactly one
// record per commit, in commit (LSN) order.
//
// A checkpoint never truncates in place: it Prunes whole segments whose
// records all lie at or below the checkpoint LSN (keeping the newest few for
// history serving), so a checkpoint that fails after being half-applied can
// never orphan acknowledged commits — the records are still in their
// segments, and replay skips the ones the snapshot already covers.
//
// Retained segments double as the spill store for the storage engine's
// changelogs: ReadRange serves any still-present LSN window directly from
// the segment files, which is what lets Changes answer for watermarks that
// have fallen out of the in-memory rings — across checkpoints and process
// restarts.
//
// Concurrency: appends are serialised by the caller (the storage engine's
// one writer); Prune, ReadRange, Stats and Sync may be called concurrently
// with appends and each other.
type Segmented struct {
	mu     sync.Mutex
	dir    string
	limit  int64 // rotation threshold for the active segment
	segs   []segInfo
	active *os.File
	// nextLSN is the LSN the next appended record will carry.
	nextLSN   uint64
	rotations uint64
	pruned    uint64
	closed    bool
}

// segInfo describes one segment file. For sealed segments size is final;
// for the active segment it tracks the append offset.
type segInfo struct {
	index    uint64
	firstLSN uint64
	size     int64
}

// SegmentedOptions configures OpenSegmented.
type SegmentedOptions struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (0 selects DefaultSegmentBytes). Records are never split: a segment
	// may exceed the threshold by the batch that sealed it.
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold used when
// SegmentedOptions.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// Segment header: magic "cdbW", version u32 = 2, first-record LSN u64,
// IEEE CRC-32 of the preceding 16 bytes. The CRC matters because the
// first-LSN is load-bearing for every record's identity: an unprotected
// downward bit-flip would silently renumber the segment's records into
// the checkpoint-covered range and replay would skip them.
const (
	segVersion    = 2
	segHeaderSize = 20
)

// segPrefix is the segment file name prefix; the suffix is the zero-padded
// decimal index.
const segPrefix = "wal."

// ErrRangeUnavailable is returned by ReadRange when part of the requested
// LSN window is not present in the retained segments (pruned, never
// written, or lost to a torn tail).
var ErrRangeUnavailable = errors.New("wal: lsn range unavailable")

func segName(index uint64) string {
	return fmt.Sprintf("%s%06d", segPrefix, index)
}

// parseSegName extracts the index from a segment file name, reporting
// whether the name is a segment name at all.
func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, segPrefix)
	if !ok || s == "" {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

func encodeSegHeader(firstLSN uint64) []byte {
	hdr := make([]byte, segHeaderSize)
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(hdr[:16]))
	return hdr
}

// parseSegHeader validates a segment header and returns its first-record
// LSN. ok is false for short, mismatched-magic or CRC-broken headers;
// version mismatches are a distinct error (they are well-formed headers
// from a future format, not damage).
func parseSegHeader(data []byte) (firstLSN uint64, ok bool, err error) {
	if len(data) < segHeaderSize || [4]byte(data[:4]) != magic {
		return 0, false, nil
	}
	if crc32.ChecksumIEEE(data[:16]) != binary.LittleEndian.Uint32(data[16:segHeaderSize]) {
		return 0, false, nil
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return 0, false, fmt.Errorf("wal: unsupported segment version %d", v)
	}
	return binary.LittleEndian.Uint64(data[8:16]), true, nil
}

// OpenSegmented opens (or creates) the segmented WAL in dir. base is the
// LSN up to which state is already durable elsewhere (the checkpoint
// snapshot); records found at or below it are still replayed through apply
// — the caller decides to skip them — but the log guarantees the next
// appended record carries an LSN greater than both base and every record
// on disk. apply is called once per intact record in global LSN order.
//
// Recovery is manifest-free: segment files are discovered by name,
// validated by their headers, and chained by first-LSN. A torn tail in the
// last segment is truncated (crash mid-append); a last segment with a
// short or unreadable header is discarded (crash mid-rotation); a torn or
// corrupt record anywhere else refuses to open, since acknowledged data
// would follow it.
func OpenSegmented(dir string, base uint64, opts SegmentedOptions, apply func(lsn uint64, payload []byte) error) (*Segmented, error) {
	limit := opts.SegmentBytes
	if limit <= 0 {
		limit = DefaultSegmentBytes
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var found []segInfo
	for _, e := range entries {
		if idx, ok := parseSegName(e.Name()); ok {
			found = append(found, segInfo{index: idx})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].index < found[j].index })
	for i := 1; i < len(found); i++ {
		if found[i].index != found[i-1].index+1 {
			return nil, fmt.Errorf("wal: segment gap: %s then %s",
				segName(found[i-1].index), segName(found[i].index))
		}
	}

	g := &Segmented{dir: dir, limit: limit, nextLSN: base + 1}
	running := uint64(0) // LSN after the records scanned so far
	for i, si := range found {
		path := filepath.Join(dir, segName(si.index))
		last := i == len(found)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read %s: %w", segName(si.index), err)
		}
		first, hdrOK, hdrErr := parseSegHeader(data)
		if hdrErr != nil {
			return nil, fmt.Errorf("wal: %s: %w", segName(si.index), hdrErr)
		}
		if !hdrOK {
			if last {
				// Crash between creating the segment and completing its
				// header: nothing in it can be a committed record.
				os.Remove(path)
				break
			}
			return nil, fmt.Errorf("wal: %s: bad segment header", segName(si.index))
		}
		if running == 0 && first > base+1 {
			// Records before the oldest segment exist only as checkpoint
			// state; an oldest segment starting above base+1 means
			// acknowledged commits vanished.
			return nil, fmt.Errorf("wal: %s: first lsn %d leaves lsns through %d uncovered by checkpoint %d",
				segName(si.index), first, first-1, base)
		}
		if running != 0 && first < running {
			return nil, fmt.Errorf("wal: %s: first lsn %d overlaps previous segment (next expected %d)",
				segName(si.index), first, running)
		}
		if running != 0 && first > running && first > base+1 {
			// A first-LSN jump is legal only when the skipped records are
			// checkpoint-covered (their segment was pruned, or the WAL tail
			// was lost to a crash the snapshot outlived and the log rotated
			// past it); anything else is a hole in acknowledged history.
			return nil, fmt.Errorf("wal: %s: lsn gap %d..%d not covered by checkpoint %d",
				segName(si.index), running, first-1, base)
		}
		lsn := first
		end, torn, err := scanRecords(data[segHeaderSize:], func(payload []byte) error {
			if apply != nil {
				if err := apply(lsn, payload); err != nil {
					return fmt.Errorf("wal: apply record lsn %d: %w", lsn, err)
				}
			}
			lsn++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("wal: %s: %w", segName(si.index), err)
		}
		size := int64(segHeaderSize + end)
		if torn {
			if !last {
				return nil, fmt.Errorf("%w: torn record in non-final segment %s", ErrCorrupt, segName(si.index))
			}
			if err := os.Truncate(path, size); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		g.segs = append(g.segs, segInfo{index: si.index, firstLSN: first, size: size})
		running = lsn
	}
	if running > base && running > 0 {
		g.nextLSN = running
	}
	if base+1 > g.nextLSN {
		g.nextLSN = base + 1
	}

	switch {
	case len(g.segs) == 0:
		if err := g.createSegmentLocked(1, g.nextLSN); err != nil {
			return nil, err
		}
	case running < g.nextLSN && g.segs[len(g.segs)-1].size > segHeaderSize:
		// The snapshot is ahead of the log (a crash lost an unsynced WAL
		// tail that the synced snapshot had already captured). Appending to
		// the old segment would mis-number the new records — its header
		// chain would assign them the lost LSNs — so seal it and start a
		// fresh segment whose header carries the true next LSN.
		if err := g.openActiveLocked(); err != nil {
			return nil, err
		}
		if err := g.rotateLocked(); err != nil {
			return nil, err
		}
	default:
		if running < g.nextLSN {
			// Empty tail segment created before the snapshot advanced: its
			// header LSN is stale, rewrite it in place.
			last := &g.segs[len(g.segs)-1]
			last.firstLSN = g.nextLSN
			path := filepath.Join(dir, segName(last.index))
			if err := os.WriteFile(path, encodeSegHeader(g.nextLSN), 0o644); err != nil {
				return nil, fmt.Errorf("wal: rewrite segment header: %w", err)
			}
		}
		if err := g.openActiveLocked(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// createSegmentLocked creates and syncs a fresh segment and makes it the
// active one.
func (g *Segmented) createSegmentLocked(index, firstLSN uint64) error {
	path := filepath.Join(g.dir, segName(index))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegHeader(firstLSN)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	syncDir(g.dir)
	if g.active != nil {
		g.active.Close()
	}
	g.active = f
	g.segs = append(g.segs, segInfo{index: index, firstLSN: firstLSN, size: segHeaderSize})
	return nil
}

// openActiveLocked opens the last discovered segment for appending.
func (g *Segmented) openActiveLocked() error {
	last := g.segs[len(g.segs)-1]
	path := filepath.Join(g.dir, segName(last.index))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	if _, err := f.Seek(last.size, 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: seek active segment: %w", err)
	}
	g.active = f
	return nil
}

// rotateLocked seals the active segment (fsync, so a later crash cannot
// tear it once a newer segment exists) and opens the next one. Writers need
// no retargeting: they write through this Segmented, which swaps the active
// file under them.
func (g *Segmented) rotateLocked() error {
	if err := g.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync sealed segment: %w", err)
	}
	next := g.segs[len(g.segs)-1].index + 1
	if err := g.createSegmentLocked(next, g.nextLSN); err != nil {
		return err
	}
	g.rotations++
	return nil
}

// Append writes one record, which is assigned the next LSN. The payload
// reaches the OS buffer before Append returns; call Sync for durability.
func (g *Segmented) Append(payload []byte) error {
	return g.AppendBatch([][]byte{payload})
}

// AppendBatch writes several records with a single write call; each record
// is assigned the next LSN in order. The whole batch lands in one segment:
// rotation happens between batches, never inside one.
func (g *Segmented) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	if g.segs[len(g.segs)-1].size >= g.limit {
		if err := g.rotateLocked(); err != nil {
			return err
		}
	}
	buf := frameBatch(payloads)
	if _, err := g.active.Write(buf); err != nil {
		return fmt.Errorf("wal: append batch: %w", err)
	}
	g.segs[len(g.segs)-1].size += int64(len(buf))
	g.nextLSN += uint64(len(payloads))
	return nil
}

// Sync flushes the active segment to stable storage.
func (g *Segmented) Sync() error {
	g.mu.Lock()
	f := g.active
	g.mu.Unlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Prune deletes segments whose records all lie at or below ckptLSN — they
// are fully covered by a durable checkpoint — except the newest `retain`
// of them, kept so ReadRange can keep serving history. The active segment
// is never pruned. Returns the number of segments deleted.
func (g *Segmented) Prune(ckptLSN uint64, retain int) int {
	if retain < 0 {
		retain = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// A sealed segment's records end where the next segment's begin.
	prunable := 0
	for i := 0; i+1 < len(g.segs); i++ {
		if g.segs[i+1].firstLSN-1 <= ckptLSN {
			prunable = i + 1
		} else {
			break
		}
	}
	drop := prunable - retain
	if drop <= 0 {
		return 0
	}
	for i := 0; i < drop; i++ {
		os.Remove(filepath.Join(g.dir, segName(g.segs[i].index)))
	}
	g.segs = append(g.segs[:0:0], g.segs[drop:]...)
	g.pruned += uint64(drop)
	syncDir(g.dir)
	return drop
}

// ReadRange calls fn for every record with from <= LSN <= to, in LSN
// order, reading directly from the segment files (including retained
// pre-checkpoint segments and the active segment's stable prefix). It
// returns ErrRangeUnavailable when any part of the window is not present —
// pruned away, beyond the written tail, or cut off by a torn record.
// Callers must only request LSNs whose records are fully written (the
// storage engine publishes a commit only after its record is appended).
func (g *Segmented) ReadRange(from, to uint64, fn func(lsn uint64, payload []byte) error) error {
	if to < from {
		return nil
	}
	g.mu.Lock()
	if from < g.segs[0].firstLSN || to >= g.nextLSN {
		g.mu.Unlock()
		return ErrRangeUnavailable
	}
	segs := append([]segInfo(nil), g.segs...)
	g.mu.Unlock()

	next := from
	for i, si := range segs {
		// Skip segments wholly before the window.
		if i+1 < len(segs) && segs[i+1].firstLSN <= next {
			continue
		}
		if si.firstLSN > next {
			return ErrRangeUnavailable // hole (concurrent prune raced us)
		}
		data, err := os.ReadFile(filepath.Join(g.dir, segName(si.index)))
		if err != nil {
			return ErrRangeUnavailable // pruned between the list copy and the read
		}
		lsn, hdrOK, hdrErr := parseSegHeader(data)
		if hdrErr != nil || !hdrOK {
			return ErrRangeUnavailable
		}
		stop := errors.New("wal: range done")
		_, _, err = scanRecords(data[segHeaderSize:], func(payload []byte) error {
			if lsn > to {
				return stop
			}
			if lsn >= next {
				if err := fn(lsn, payload); err != nil {
					return err
				}
				next = lsn + 1
			}
			lsn++
			return nil
		})
		if err != nil && !errors.Is(err, stop) {
			if errors.Is(err, ErrCorrupt) {
				return ErrRangeUnavailable
			}
			return err
		}
		if next > to {
			return nil
		}
	}
	return ErrRangeUnavailable
}

// SegmentedStats summarises the log for engine reports.
type SegmentedStats struct {
	// Segments is the number of live segment files (active included).
	Segments int
	// Bytes is the total size of the live segment files.
	Bytes int64
	// FirstLSN is the oldest LSN still readable via ReadRange (NextLSN
	// when the log holds no records).
	FirstLSN uint64
	// NextLSN is the LSN the next appended record will carry.
	NextLSN uint64
	// Rotations counts segment rotations since open.
	Rotations uint64
	// Pruned counts segments deleted by checkpoints since open.
	Pruned uint64
}

// Stats returns current segment counters.
func (g *Segmented) Stats() SegmentedStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := SegmentedStats{
		Segments:  len(g.segs),
		FirstLSN:  g.segs[0].firstLSN,
		NextLSN:   g.nextLSN,
		Rotations: g.rotations,
		Pruned:    g.pruned,
	}
	for _, si := range g.segs {
		st.Bytes += si.size
	}
	return st
}

// Size returns the total size of the live segment files (headers
// included).
func (g *Segmented) Size() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, si := range g.segs {
		n += si.size
	}
	return n
}

// FirstLSN returns the oldest LSN still readable via ReadRange.
func (g *Segmented) FirstLSN() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.segs[0].firstLSN
}

// Close closes the active segment without syncing.
func (g *Segmented) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	return g.active.Close()
}

// Dir returns the log's directory.
func (g *Segmented) Dir() string { return g.dir }
