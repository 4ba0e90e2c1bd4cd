package storage

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"
)

// Marks are opaque (key → uint64) pairs a caller keeps with its data: the
// engine logs them inside commit records, replays them at recovery and writes
// them into checkpoint snapshots, and gives them no meaning. A peer keeps its
// export watermarks here, so a mark never outlives, or runs ahead of, the
// commits it describes.
//
// SetMark stages a mark. It rides on the next record the database writes — a
// commit or a DDL — so it is durable exactly when that record is; a crash
// before then loses it. LogMarks writes what is staged as a record of its
// own, now. A mark set to 0 is deleted. The published Snapshot carries the
// marks in force at its LSN, which is what a checkpoint writes: a snapshot
// never holds a mark logged after its contents.

// Marks returns the marks in force at the published state. The map is shared
// and must not be modified.
func (db *DB) Marks() map[string]uint64 {
	return db.root.Load().marks
}

// SetMark stages a mark to ride on the next record (0 deletes the key).
func (db *DB) SetMark(key string, v uint64) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.pending == nil {
		db.pending = make(map[string]uint64)
	}
	db.pending[key] = v
}

// LogMarks writes the staged marks as a record of their own, which takes the
// next LSN and is synced like a commit under SyncOnCommit. No-op when nothing
// is staged.
func (db *DB) LogMarks() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if len(db.pending) == 0 {
		return nil
	}
	if err := db.writable(); err != nil {
		return err
	}
	return db.logMarksLocked()
}

// logMarksLocked is LogMarks under writeMu: a record with no ops.
func (db *DB) logMarksLocked() error {
	db.lsn++
	err := db.logRecord(func() []byte { return binary.AppendUvarint(nil, 0) })
	db.applyMarks()
	db.publish()
	if err == nil && db.log != nil {
		db.commitsSinceCheckpoint.Add(1)
	}
	return err
}

// withMarks appends the staged marks to a record payload: a uvarint count
// and, per mark, the key and the value. A record that carries none ends with
// its ops, as records always did. The caller holds writeMu.
func (db *DB) withMarks(rec []byte) []byte {
	if len(db.pending) == 0 {
		return rec
	}
	return encodeMarks(rec, db.pending)
}

// applyMarks folds the staged marks into a new marks map (the published one
// is shared with readers) and clears the stage. The caller holds writeMu and
// publishes next.
func (db *DB) applyMarks() {
	if len(db.pending) == 0 {
		return
	}
	db.marks = setMarks(maps.Clone(db.marks), db.pending)
	db.pending = nil
}

// setMarks applies key → value pairs to m, deleting the keys set to 0, and
// returns it (made when nil).
func setMarks(m, kv map[string]uint64) map[string]uint64 {
	if m == nil {
		m = make(map[string]uint64, len(kv))
	}
	for k, v := range kv {
		if v == 0 {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	return m
}

// encodeMarks appends a count and the pairs in key order.
func encodeMarks(dst []byte, m map[string]uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		dst = putString(dst, k)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

var errTruncatedMarks = errors.New("storage: truncated marks")

// marks decodes what encodeMarks wrote.
func (r *reader) marks() map[string]uint64 {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)-r.off) { // a pair takes two bytes at least
		if r.err == nil {
			r.err = errTruncatedMarks
		}
		return nil
	}
	m := make(map[string]uint64, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.uvarint()
	}
	return m
}
