// Package wal implements the write-ahead logs used by the storage engine
// for durability.
//
// The current log format is the segmented WAL (see segment.go): a directory
// of numbered append-only segment files whose headers carry the LSN of
// their first record, rotated at a size threshold and truncated by
// checkpoints. The single-file Log in this file is the simplest harness for
// the shared record framing and the file under the peer layer's
// export-state log (a small append-only sidecar that wants exactly this
// framing and torn-tail recovery, and none of the segment machinery).
//
// Record layout (shared by both formats):
//
//	--- file header (format-specific, see headerSize/segHeaderSize) ---
//	--- per record ---
//	length  uint32   payload length
//	crc     uint32   IEEE CRC-32 of payload
//	payload [length]byte
//
// A torn tail (partial final record, e.g. after a crash) is detected by the
// length/CRC and truncated on recovery; a bad record followed by more data
// is corruption and refuses to open.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

var magic = [4]byte{'c', 'd', 'b', 'W'}

const legacyVersion = 1

// headerSize is the legacy file header length in bytes.
const headerSize = 8

// recPrefix is the per-record framing length (u32 length + u32 CRC).
const recPrefix = 8

// ErrCorrupt is returned (wrapped) when a log contains a record whose CRC
// does not match in a position other than the tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// frameRecord appends one record's framing and payload to dst.
func frameRecord(dst, payload []byte) []byte {
	var rec [recPrefix]byte
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, rec[:]...)
	return append(dst, payload...)
}

// frameBatch serialises the framing of every payload into one buffer, so a
// group commit of n records costs one write syscall instead of 2n.
func frameBatch(payloads [][]byte) []byte {
	total := 0
	for _, p := range payloads {
		total += recPrefix + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = frameRecord(buf, p)
	}
	return buf
}

// scanRecords walks the length-prefixed records in buf, calling fn for each
// intact record. It returns the offset just past the last intact record.
// torn reports whether leftover bytes follow that offset: an incomplete
// length prefix, a short payload, or a CRC-mismatched record that is the
// very last thing in the buffer — the signature of a crash mid-append. A
// CRC mismatch with more data after it is not a torn tail but corruption,
// reported via err (fn errors are also returned through err, with end at
// the offending record). The payload passed to fn aliases buf.
func scanRecords(buf []byte, fn func(payload []byte) error) (end int, torn bool, err error) {
	off := 0
	for {
		if off+recPrefix > len(buf) {
			return off, off != len(buf), nil
		}
		rawLen := binary.LittleEndian.Uint32(buf[off : off+4])
		crc := binary.LittleEndian.Uint32(buf[off+4 : off+recPrefix])
		// The length is garbage-controlled on recovery: bound it by the
		// bytes actually present before converting or slicing (the uint64
		// comparison also keeps a >=2^31 length from going negative on
		// 32-bit builds).
		if uint64(rawLen) > uint64(len(buf)-off-recPrefix) {
			return off, true, nil
		}
		length := int(rawLen)
		payload := buf[off+recPrefix : off+recPrefix+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if off+recPrefix+length == len(buf) {
				return off, true, nil // torn tail: claimed extent ends the buffer
			}
			return off, false, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
		off += recPrefix + length
	}
}

// Log is the single-file append-only log. Append and Sync may be called
// from one goroutine at a time. Databases use Segmented instead; Log serves
// the peer layer's export-state file and tests of the shared framing.
type Log struct {
	f    *os.File
	path string
	size int64
}

// Create creates (or truncates) a legacy log file at path and writes the
// header.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], legacyVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	return &Log{f: f, path: path, size: headerSize}, nil
}

// Open opens an existing legacy log for appending. It validates the header,
// replays every intact record through apply, truncates a torn tail if
// present, and positions the log for appending. A missing file is created
// fresh.
func Open(path string, apply func(payload []byte) error) (*Log, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Create(path)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if len(data) < headerSize {
		// Empty or truncated header: re-create.
		return Create(path)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("wal: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != legacyVersion {
		return nil, fmt.Errorf("wal: %s: unsupported version %d", path, v)
	}
	n, _, err := scanRecords(data[headerSize:], apply)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	offset := int64(headerSize + n)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{f: f, path: path, size: offset}, nil
}

// Append writes one record. The payload is copied into the OS buffer before
// Append returns; call Sync for durability.
func (l *Log) Append(payload []byte) error {
	if _, err := l.f.Write(frameRecord(nil, payload)); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += recPrefix + int64(len(payload))
	return nil
}

// AppendBatch writes several records with a single underlying write call.
// Equivalent to calling Append for each payload in order.
func (l *Log) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	buf := frameBatch(payloads)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append batch: %w", err)
	}
	l.size += int64(len(buf))
	return nil
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Size returns the current log size in bytes (header included).
func (l *Log) Size() int64 { return l.size }

// Close closes the underlying file without syncing.
func (l *Log) Close() error { return l.f.Close() }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// syncDir fsyncs a directory so entry creation/removal inside it is
// durable (best effort on filesystems without directory sync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
