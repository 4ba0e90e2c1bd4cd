package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"codb/internal/relation"
)

// WAL record payloads and the snapshot file share a small binary vocabulary:
//
//	uvarint-prefixed byte strings and counts
//	tuples as uvarint length + order-preserving encoding
//
// A WAL payload is: count, then per op: kind byte, relation name, and for
// insert/delete the tuple; for DDL the relation definition. A record that
// carries marks (marks.go) goes on with their count and key/value pairs.

func putString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func putBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("storage: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if r.off+int(n) > len(r.b) {
		r.err = fmt.Errorf("storage: truncated string at offset %d", r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if r.off+int(n) > len(r.b) {
		r.err = fmt.Errorf("storage: truncated bytes at offset %d", r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func encodeDef(dst []byte, def *relation.RelDef) []byte {
	dst = putString(dst, def.Name)
	dst = binary.AppendUvarint(dst, uint64(len(def.Attrs)))
	for _, a := range def.Attrs {
		dst = putString(dst, a.Name)
		dst = append(dst, byte(a.Type))
	}
	return dst
}

func (r *reader) def() *relation.RelDef {
	name := r.str()
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	attrs := make([]relation.Attr, 0, n)
	for i := uint64(0); i < n; i++ {
		an := r.str()
		if r.err != nil {
			return nil
		}
		if r.off >= len(r.b) {
			r.err = fmt.Errorf("storage: truncated attr type")
			return nil
		}
		attrs = append(attrs, relation.Attr{Name: an, Type: relation.Type(r.b[r.off])})
		r.off++
	}
	return &relation.RelDef{Name: name, Attrs: attrs}
}

func encodeDDL(def *relation.RelDef) []byte {
	dst := binary.AppendUvarint(nil, 1)
	dst = append(dst, byte(opDDL))
	return encodeDef(dst, def)
}

// encodeRows encodes the applied rows of a commit (see DB.commit) as a WAL
// payload.
func encodeRows(rows []relation.Row, applied []bool) []byte {
	size, count := binary.MaxVarintLen64, 0
	for i := range rows {
		if applied[i] {
			size += 1 + 2*binary.MaxVarintLen32 + len(rows[i].Rel) + len(rows[i].Key)
			count++
		}
	}
	dst := binary.AppendUvarint(make([]byte, 0, size), uint64(count))
	for i, r := range rows {
		if !applied[i] {
			continue
		}
		kind := opInsert
		if r.Tuple == nil {
			kind = opDelete
		}
		dst = append(dst, byte(kind))
		dst = putString(dst, r.Rel)
		dst = putString(dst, r.Key) // the order-preserving encoding is the key
	}
	return dst
}

// applyLogRecord replays one WAL record during recovery. It bypasses the
// commit path's lock and log but applies and captures the record's ops as
// a commit does (DB.apply, DB.capture): the DB is not yet shared or
// published. Each record is one commit carrying the LSN its segment header
// implies, and replayed inserts re-enter the changelogs — a watermark taken
// after the last checkpoint stays incrementally answerable across a restart.
// The one writer logs in LSN order, so replay reproduces the original
// sequence numbers. Records at or below the
// snapshot's checkpoint LSN are skipped, not re-applied: they survive in
// retained segments (for changelog spill) or after a checkpoint that
// failed before pruning, and their state is already in the snapshot — so
// a half-applied checkpoint can never double-apply or orphan acknowledged
// commits.
func (db *DB) applyLogRecord(lsn uint64, payload []byte) error {
	if lsn <= db.recoveredCkpt {
		return nil
	}
	if lsn != db.lsn+1 {
		return fmt.Errorf("storage: replay lsn %d after %d (gap in acknowledged commits)", lsn, db.lsn)
	}
	r := &reader{b: payload}
	count := r.uvarint()
	if count > uint64(len(payload)) { // every op takes at least its kind byte
		return fmt.Errorf("storage: truncated op")
	}
	db.lsn = lsn
	capt := capture{limit: db.changelogLimit(), lsn: lsn}
	var rows []relation.Row
	flush := func() {
		applied := make([]bool, len(rows))
		db.apply(rows, applied)
		db.capture(rows, applied, capt)
		rows = rows[:0]
	}
	for i := uint64(0); i < count && r.err == nil; i++ {
		if r.off >= len(r.b) {
			return fmt.Errorf("storage: truncated op")
		}
		kind := opKind(r.b[r.off])
		r.off++
		switch kind {
		case opDDL:
			def := r.def()
			if r.err != nil {
				return r.err
			}
			flush()
			if err := db.schema.Add(def); err != nil {
				return fmt.Errorf("storage: replay ddl: %w", err)
			}
			db.tables[def.Name] = newTable(def)
		case opInsert, opDelete:
			rel := r.str()
			enc := r.bytes()
			if r.err != nil {
				return r.err
			}
			def := db.schema.Rel(rel)
			if def == nil {
				return fmt.Errorf("storage: replay references unknown relation %q", rel)
			}
			tuple, err := relation.DecodeTuple(enc, def.Arity())
			if err != nil {
				return fmt.Errorf("storage: replay %s: %w", rel, err)
			}
			if kind == opDelete {
				tuple = nil
			}
			// The encoded op payload IS the tuple key.
			rows = append(rows, relation.Row{Rel: def.Name, Key: string(enc), Tuple: tuple})
		default:
			return fmt.Errorf("storage: replay: bad op kind %d", kind)
		}
	}
	if r.err != nil {
		return r.err
	}
	flush()
	if r.off < len(r.b) {
		db.marks = setMarks(db.marks, r.marks())
	}
	return r.err
}

// decodeRelOps decodes one WAL payload and returns the inserts it commits
// into rel, in op order — the changelog-spill decoder behind
// changesFromSegments. A delete on rel aborts with errSpillDelete (the
// window is not expressible as an insert delta); ops on other relations
// and DDL are skipped without decoding tuples.
func decodeRelOps(payload []byte, rel string, arity int) ([]relation.Tuple, error) {
	r := &reader{b: payload}
	count := r.uvarint()
	var out []relation.Tuple
	for i := uint64(0); i < count && r.err == nil; i++ {
		if r.off >= len(r.b) {
			return nil, fmt.Errorf("storage: truncated op")
		}
		kind := opKind(r.b[r.off])
		r.off++
		switch kind {
		case opDDL:
			if r.def(); r.err != nil {
				return nil, r.err
			}
		case opInsert, opDelete:
			opRel := r.str()
			enc := r.bytes()
			if r.err != nil {
				return nil, r.err
			}
			if opRel != rel {
				continue
			}
			if kind == opDelete {
				return nil, errSpillDelete
			}
			tuple, err := relation.DecodeTuple(enc, arity)
			if err != nil {
				return nil, fmt.Errorf("storage: spill decode %s: %w", rel, err)
			}
			out = append(out, tuple)
		default:
			return nil, fmt.Errorf("storage: spill decode: bad op kind %d", kind)
		}
	}
	return out, r.err
}

// Snapshot file layout: magic "cdbS", version u32 (snapVersion, 5), CRC
// u32 of the body. The body is, in order:
//
//	uvarint shard count — always written as 1; a reader checks it is >= 1
//	        and otherwise ignores it (tuples are in global key order
//	        whatever count an earlier engine recorded)
//	schema: uvarint relation count + relation definitions
//	per relation: uvarint tuple count + tuples in key order
//	uvarint commit LSN — the sequence number export watermarks reference
//	uvarint checkpoint LSN — the LSN the contents were pinned at.
//	        Background checkpoints write the snapshot while commits
//	        continue, so WAL records above this LSN (and retained segments
//	        below it) coexist with the snapshot; replay skips records at
//	        or below it.
//	marks  — the marks in force at that LSN: uvarint count, then key and
//	        uvarint value per mark, in key order.
//
// Versions 1–4 (the same body without the marks, the checkpoint LSN or the
// shard count) are refused.
var snapMagic = [4]byte{'c', 'd', 'b', 'S'}

const snapVersion = 5

// Checkpoint writes a snapshot of the committed state and truncates the
// WAL by whole segments, without stopping the world: it writes the
// published root (taking no database lock) to a temp file and atomically
// swaps it in while commits proceed. Only segments wholly at
// or below the pinned LSN are deleted — the newest few are retained for
// changelog spill — so a checkpoint that fails mid-way leaves every
// acknowledged commit recoverable. No-op for memory-only databases.
// Reports any failure of an earlier background checkpoint first.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.takeCheckpointErr(); err != nil {
		return err
	}
	if db.closed.Load() {
		return errClosed
	}
	return db.checkpointPinned()
}

// kickCheckpoint is the CheckpointEvery trigger, called by a commit after
// it published. The checkpoint runs on a background goroutine so the writer
// proceeds immediately; ckptMu collapses repeated triggers into one running
// checkpoint, and failures are stashed for the next explicit Checkpoint or
// Close.
func (db *DB) kickCheckpoint() {
	if !db.ckptMu.TryLock() {
		return // one is already running; it will absorb these commits
	}
	go func() {
		defer db.ckptMu.Unlock()
		if db.closed.Load() || db.commitsSinceCheckpoint.Load() < int64(db.opts.CheckpointEvery) {
			return
		}
		if err := db.checkpointPinned(); err != nil {
			db.recordCheckpointErr(err)
		}
	}()
}

// checkpointPinned is the checkpoint body; the caller holds ckptMu (and
// nothing else — lock order is ckptMu before writeMu). It works the same
// for explicit, background and Close-time checkpoints. It needs no barrier:
// a commit is published only after its record is in the log.
func (db *DB) checkpointPinned() error {
	if db.log == nil {
		return nil
	}
	// Commits that land after the pin stay counted toward the next
	// checkpoint trigger.
	pinnedCount := db.commitsSinceCheckpoint.Load()
	snap := db.Snapshot()
	body := encodeSnapshotBody(snap)
	path := filepath.Join(db.opts.Dir, snapshotName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	w := bufio.NewWriter(f)
	var hdr [12]byte
	copy(hdr[:4], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], snapVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err == nil {
		_, err = w.Write(body)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	db.commitsSinceCheckpoint.Add(-pinnedCount)
	// Only now that the snapshot is durably in place may the segments it
	// supersedes go; the retained ones keep serving changelog history.
	db.log.Prune(snap.LSN(), db.retainSegments())
	return nil
}

// encodeSnapshotBody renders a pinned Snapshot as a v5 snapshot body. The
// bytes are identical whether the checkpoint ran quiescent or beside
// commits, since the pin is a consistent cut.
func encodeSnapshotBody(snap *Snapshot) []byte {
	names := snap.schema.Names()
	body := binary.AppendUvarint(nil, 1) // shard count
	body = binary.AppendUvarint(body, uint64(len(names)))
	for _, name := range names {
		body = encodeDef(body, snap.schema.Rel(name))
	}
	for _, name := range names {
		body = binary.AppendUvarint(body, uint64(snap.Count(name)))
		snap.Scan(name, func(tu relation.Tuple) bool {
			body = putBytes(body, []byte(tu.Key()))
			return true
		})
	}
	body = binary.AppendUvarint(body, snap.lsn)
	body = binary.AppendUvarint(body, snap.lsn) // the checkpoint LSN
	return encodeMarks(body, snap.marks)
}

// loadSnapshot restores state from the snapshot file; a missing file leaves
// the DB empty. Corruption is an error (the WAL cannot repair a bad base).
func (db *DB) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read snapshot: %w", err)
	}
	if len(data) < 12 || [4]byte(data[:4]) != snapMagic {
		return fmt.Errorf("storage: %s: not a snapshot file", path)
	}
	if version := binary.LittleEndian.Uint32(data[4:8]); version != snapVersion {
		return fmt.Errorf("storage: %s: unsupported snapshot version %d", path, version)
	}
	body := data[12:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[8:12]) {
		return fmt.Errorf("storage: %s: snapshot checksum mismatch", path)
	}
	r := &reader{b: body}
	if shards := r.uvarint(); r.err == nil && shards < 1 {
		return fmt.Errorf("storage: %s: recorded shard count %d", path, shards)
	}
	nrels := r.uvarint()
	defs := make([]*relation.RelDef, 0, nrels)
	for i := uint64(0); i < nrels; i++ {
		def := r.def()
		if r.err != nil {
			return r.err
		}
		if err := db.schema.Add(def); err != nil {
			return fmt.Errorf("storage: snapshot schema: %w", err)
		}
		db.tables[def.Name] = newTable(def)
		defs = append(defs, def)
	}
	for _, def := range defs {
		count := r.uvarint()
		// The tuples are in key order: one batch, merged as it lies.
		rows := make([]relation.Row, 0, min(count, uint64(len(body)-r.off)))
		for i := uint64(0); i < count; i++ {
			enc := r.bytes()
			if r.err != nil {
				return r.err
			}
			tuple, err := relation.DecodeTuple(enc, def.Arity())
			if err != nil {
				return fmt.Errorf("storage: snapshot %s: %w", def.Name, err)
			}
			rows = append(rows, relation.Row{Rel: def.Name, Key: string(enc), Tuple: tuple})
		}
		// Snapshot-loaded state has no changelog (see below).
		db.apply(rows, make([]bool, len(rows)))
	}
	db.lsn = r.uvarint()
	db.recoveredCkpt = min(db.lsn, r.uvarint())
	db.marks = r.marks()
	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return fmt.Errorf("storage: snapshot has %d trailing bytes", len(body)-r.off)
	}
	// Snapshot-loaded state has no in-memory changelog: history up to the
	// snapshot LSN is evicted, not lost — retained WAL segments (when
	// present) keep serving it through the spill path; without them,
	// watermarks older than the snapshot degrade to full scans.
	for _, t := range db.tables {
		t.evictedBelow = db.lsn
	}
	return nil
}
