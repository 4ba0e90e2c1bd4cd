package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"codb/internal/core"
	"codb/internal/storage"
	"codb/internal/wal"
)

// Export-state persistence: the per-rule LSN watermarks and shipped-binding
// fingerprints of the incremental export machinery live in a sidecar log in
// the peer's durability directory. Every finished materialising session
// appends one record holding what the session changed (core.ExportDelta: per
// rule the text, the watermark, the newly fingerprinted keys, and whether
// earlier records for the rule are void), so persisting costs in proportion
// to the session, not to everything the link ever shipped. The log is
// replayed at construction.
//
// The file is a wal.Log — the WAL's header, CRC framing and torn-tail
// recovery — whose records are encoded below. It is rewritten to the live
// state (one record per rule) once it has grown past twice that state's
// size, and when the peer stops.
//
// The file is pure optimisation state — core.Node validates every restored
// entry against the current rule text and storage LSN, so a missing, stale
// or damaged file only degrades the next session to a full export, never to
// missing tuples. A crash mid-append loses that one record (the torn tail is
// cut off); anything else unreadable — a corrupt record, a file in the gob
// format of earlier versions — is discarded whole.

// exportStateName is the sidecar file next to the storage snapshot/WAL.
const exportStateName = "exports.state"

// exportRecordV1 leads every record, so a later format can tell itself apart.
const exportRecordV1 = 1

// compactSlack is the size below which the log is never compacted: a
// rewrite has to save more than it costs.
const compactSlack = 64 << 10

// exportStatePath returns the peer's export-state file path ("" when the
// peer has no durable store to keep it next to).
func exportStatePath(w core.Wrapper) string {
	sw, ok := w.(interface{ DB() *storage.DB })
	if !ok || sw.DB().Dir() == "" {
		return ""
	}
	return filepath.Join(sw.DB().Dir(), exportStateName)
}

// exportLog is an open export-state file. Only the peer's actor loop uses
// it (Stop closes it once the loop has exited).
type exportLog struct {
	path string
	log  *wal.Log // nil once abandoned
	// live is what the file would weigh holding nothing but the current
	// state, kept per rule so that a reset gives its bytes back.
	live      map[string]int64
	liveBytes int64
}

// openExportLog opens the log at path, creating it if absent, and replays
// it into the state it describes. Any error means the file is unusable as
// it stands (createExportLog starts it over).
func openExportLog(path string) (*exportLog, map[string]core.ExportSnapshot, error) {
	l, state := &exportLog{path: path}, make(map[string]core.ExportSnapshot)
	if err := l.open(state); err != nil {
		return nil, nil, err
	}
	return l, state, nil
}

// createExportLog starts an empty log at path, replacing what is there.
func createExportLog(path string) (*exportLog, error) {
	log, err := wal.Create(path)
	if err != nil {
		return nil, err
	}
	return &exportLog{path: path, log: log, live: make(map[string]int64)}, nil
}

// open (re)opens the file for appending, re-deriving the live sizes from its
// records and folding them into state when one is given.
func (l *exportLog) open(state map[string]core.ExportSnapshot) (err error) {
	l.live, l.liveBytes = make(map[string]int64), 0
	l.log, err = wal.Open(l.path, func(rec []byte) error {
		deltas, err := decodeExportRecord(rec)
		for _, d := range deltas {
			if state != nil {
				d.Apply(state)
			}
			l.account(d)
		}
		return err
	})
	return err
}

// account tracks the live size of the state across one appended delta: a
// rule's header counts once however often it is repeated, its keys add up.
func (l *exportLog) account(d core.ExportDelta) {
	if d.Reset {
		l.liveBytes -= l.live[d.RuleID]
		delete(l.live, d.RuleID)
	}
	if d.RuleText == "" {
		return
	}
	grow := int64(0)
	for _, k := range d.Shipped {
		grow += int64(len(k)) + 1
	}
	if _, known := l.live[d.RuleID]; !known {
		grow += int64(len(d.RuleID) + len(d.RuleText) + 16)
	}
	l.live[d.RuleID] += grow
	l.liveBytes += grow
}

// append logs one session's deltas as one record and reports whether the
// file has outgrown the state it describes.
func (l *exportLog) append(deltas []core.ExportDelta) (compact bool, err error) {
	if err := l.log.Append(encodeExportRecord(deltas)); err != nil {
		return false, err
	}
	for _, d := range deltas {
		l.account(d)
	}
	return l.log.Size() > 2*l.liveBytes+compactSlack, nil
}

// compact rewrites the file to the given full state and continues on the new
// file.
func (l *exportLog) compact(state map[string]core.ExportSnapshot) error {
	if err := l.rewrite(state); err != nil {
		return err
	}
	l.log.Close() // that handle now names an unlinked file
	return l.open(nil)
}

// rewrite replaces the file by the given full state, one record per rule in
// rule order, through a temporary file renamed into place. The open handle
// keeps naming the old file: the caller closes it, or compacts.
func (l *exportLog) rewrite(state map[string]core.ExportSnapshot) error {
	tmp := l.path + ".tmp"
	fresh, err := wal.Create(tmp)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(state))
	for id := range state {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d := core.ExportDelta{RuleID: id, ExportSnapshot: state[id]}
		if err = fresh.Append(encodeExportRecord([]core.ExportDelta{d})); err != nil {
			break
		}
	}
	if cerr := fresh.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("peer: rewrite export state: %w", err)
	}
	return nil
}

// close releases the file.
func (l *exportLog) close() {
	if l.log != nil {
		l.log.Close()
	}
}

// abandon gives the log up after a failed write: the file may lack a record
// — a reset, at worst — so it is removed rather than left for a restart to
// trust.
func (l *exportLog) abandon() {
	l.close()
	l.log = nil
	os.Remove(l.path)
}

// Record encoding: version byte, uvarint entry count, then per entry a flags
// byte (bit 0: reset), the rule ID, the rule text (empty: the rule has no
// state), the watermark as a uvarint, and the uvarint-counted keys; strings
// are uvarint-length-prefixed.

func encodeExportRecord(deltas []core.ExportDelta) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, d := range deltas {
		size += 1 + 4*binary.MaxVarintLen64 + len(d.RuleID) + len(d.RuleText)
		for _, k := range d.Shipped {
			size += binary.MaxVarintLen32 + len(k)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, exportRecordV1)
	b = binary.AppendUvarint(b, uint64(len(deltas)))
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, d := range deltas {
		var flags byte
		if d.Reset {
			flags |= 1
		}
		b = append(b, flags)
		str(d.RuleID)
		str(d.RuleText)
		b = binary.AppendUvarint(b, d.Watermark)
		b = binary.AppendUvarint(b, uint64(len(d.Shipped)))
		for _, k := range d.Shipped {
			str(k)
		}
	}
	return b
}

var errExportRecord = errors.New("peer: malformed export-state record")

func decodeExportRecord(b []byte) ([]core.ExportDelta, error) {
	if len(b) == 0 || b[0] != exportRecordV1 {
		return nil, errExportRecord
	}
	b = b[1:]
	ok := true
	num := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return v
	}
	str := func() string {
		n := num()
		if !ok || n > uint64(len(b)) {
			ok = false
			return ""
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	count := num()
	if !ok || count > uint64(len(b)) { // an entry takes more than a byte
		return nil, errExportRecord
	}
	deltas := make([]core.ExportDelta, 0, count)
	for i := uint64(0); i < count && ok; i++ {
		if len(b) == 0 {
			return nil, errExportRecord
		}
		d := core.ExportDelta{Reset: b[0]&1 != 0}
		b = b[1:]
		d.RuleID, d.RuleText, d.Watermark = str(), str(), num()
		keys := num()
		if !ok || keys > uint64(len(b)) {
			return nil, errExportRecord
		}
		d.Shipped = make([]string, 0, keys)
		for j := uint64(0); j < keys && ok; j++ {
			d.Shipped = append(d.Shipped, str())
		}
		deltas = append(deltas, d)
	}
	if !ok || len(b) != 0 {
		return nil, errExportRecord
	}
	return deltas, nil
}
