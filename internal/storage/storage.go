// Package storage implements coDB's embedded relational engine: the Local
// Database (LDB) each peer manages. Relations are sets of typed tuples
// (set semantics, as required by the update algorithm's "T′ = T \ R" step).
// Every relation owns a B+tree primary index over the order-preserving tuple
// encoding, the secondary indexes snapshot probes built, and a changelog
// ring. Durability is optional: when opened with a directory, every commit
// is logged to a write-ahead log and periodically checkpointed into a
// snapshot file (version 5); recovery loads the snapshot and replays the
// log. Records and snapshots also carry marks, opaque key → uint64 pairs a
// caller keeps with its data (marks.go): a peer's export watermarks.
//
// Concurrency: a database has one writer. In the paper a node's Wrapper
// touches its LDB one message at a time, and a peer commits only from its
// actor loop. One mutex spans each commit or DDL: it applies the ops to the
// trees the writer owns, appends one WAL record (and syncs it under
// SyncOnCommit), captures the changes, and then publishes the committed
// state as one immutable root, a Snapshot held in an atomic pointer. Readers
// load the root and take no lock: a reader never waits on a commit's fsync,
// and never sees a commit whose record is not yet in the log.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"codb/internal/relation"
	"codb/internal/wal"
)

// Options configures Open.
type Options struct {
	// Dir is the durability directory. Empty means memory-only: no WAL,
	// no snapshots, nothing survives Close.
	Dir string
	// SyncOnCommit makes every commit durable before it returns (and
	// before it becomes visible to any reader): the writer fsyncs the WAL
	// after appending each commit's record.
	SyncOnCommit bool
	// CheckpointEvery triggers an automatic checkpoint after this many
	// commits (0 disables automatic checkpoints).
	CheckpointEvery int
	// ChangelogLimit bounds the per-relation in-memory changelog backing
	// Changes (0 selects DefaultChangelogLimit, negative disables change
	// capture entirely). When a relation's changelog overflows, its oldest
	// entries are dropped and Changes reports "history lost" for
	// watermarks that precede the drop.
	ChangelogLimit int
	// SegmentBytes rotates the WAL to a fresh segment file once the
	// active one reaches this size (0 selects wal.DefaultSegmentBytes).
	// Smaller segments tighten checkpoint truncation and changelog-spill
	// granularity at the cost of more files.
	SegmentBytes int64
	// RetainSegments keeps up to this many sealed WAL segments that a
	// checkpoint has fully superseded, so Changes can keep serving
	// pre-checkpoint history from disk — across checkpoints and restarts
	// — instead of degrading to history-lost full exports. 0 selects
	// DefaultRetainSegments; negative retains none.
	RetainSegments int
}

// DefaultChangelogLimit is the per-relation changelog bound used when
// Options.ChangelogLimit is zero.
const DefaultChangelogLimit = 4096

// DefaultRetainSegments is the number of checkpoint-superseded WAL
// segments kept for changelog spill when Options.RetainSegments is zero.
const DefaultRetainSegments = 4

// DB is an embedded relational database.
type DB struct {
	opts Options
	log  *wal.Segmented // nil when memory-only

	// root is the committed state every reader sees. The writer stores a
	// new one at the end of each commit or DDL.
	root atomic.Pointer[Snapshot]

	// writeMu spans a whole commit or DDL and guards the writer's state:
	// the fields below, up to closed, and every table's trees and
	// changelog.
	writeMu sync.Mutex
	// schema is shared with the published root, so DDL replaces it and
	// never mutates it.
	schema *relation.Schema
	tables map[string]*table
	// lsn is the monotone commit sequence number: every commit (DDL
	// included) gets the next value. It survives restarts (persisted in the
	// snapshot, advanced by WAL replay).
	lsn uint64
	// marks are the marks in force (shared with the published root, so
	// replaced, never mutated, once published); pending are the ones staged
	// to ride on the next record (see marks.go).
	marks, pending map[string]uint64
	// walErr is the first failed WAL append or sync. The log may end in a
	// torn record or a missing segment after it, so every later commit
	// returns it and appends nothing.
	walErr error
	// closed is set under writeMu; checkpoints read it without the lock.
	closed atomic.Bool

	// logged counts the commits whose record reached the log; synced counts
	// the fsyncs they issued.
	logged, synced atomic.Uint64

	// ckptMu serialises checkpoints (explicit, automatic-background, and
	// the final one in Close). A checkpoint writes the published root, so
	// commits go on while it runs. Lock order: ckptMu before writeMu.
	ckptMu sync.Mutex
	// ckptErrMu guards ckptErr, the sticky failure of a background
	// checkpoint, surfaced by the next explicit Checkpoint or Close.
	ckptErrMu sync.Mutex
	ckptErr   error
	// recoveredCkpt is the checkpoint LSN the last loaded snapshot
	// recorded: WAL replay skips records at or below it (they may survive
	// in retained segments).
	recoveredCkpt uint64

	// spillHits / spillMisses count Changes calls served from retained
	// WAL segments and ones that found the segment window unavailable.
	spillHits   atomic.Uint64
	spillMisses atomic.Uint64

	commitsSinceCheckpoint atomic.Int64
}

const (
	snapshotName = "snapshot.cdb"
	// legacyLogName is the single-file log of the pre-segment engine. No
	// database in that format is supported: a directory holding one is
	// refused rather than opened without the commits it holds.
	legacyLogName = "log.wal"
)

// Open opens (or creates) a database. With a Dir, prior state is recovered
// from the snapshot and WAL in that directory.
func Open(opts Options) (*DB, error) {
	db := &DB{
		schema: relation.NewSchema(),
		tables: make(map[string]*table),
		opts:   opts,
	}
	if opts.Dir == "" {
		db.publish()
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	legacy := filepath.Join(opts.Dir, legacyLogName)
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("storage: %s: unsupported pre-segment write-ahead log", legacy)
	}
	// A crash can leave a half-written snapshot behind; it was never
	// renamed into place, so it holds nothing durable.
	os.Remove(filepath.Join(opts.Dir, snapshotName) + ".tmp")
	if err := db.loadSnapshot(filepath.Join(opts.Dir, snapshotName)); err != nil {
		return nil, err
	}
	log, err := wal.OpenSegmented(opts.Dir, db.lsn,
		wal.SegmentedOptions{SegmentBytes: opts.SegmentBytes}, db.applyLogRecord)
	if err != nil {
		return nil, err
	}
	db.log = log
	db.publish()
	return db, nil
}

// MustOpenMem opens a memory-only database, panicking on error; convenience
// for tests and examples.
func MustOpenMem() *DB {
	db, err := Open(Options{})
	if err != nil {
		panic(err)
	}
	return db
}

// publish stores the writer's state as the new root: the LSN, the schema,
// and one view per relation. A relation written since the last publish
// gets a fresh view (O(1) clones of its trees); every other relation keeps
// its view, and with it the secondary indexes readers built on it. The
// caller holds writeMu (or owns the database, during Open).
func (db *DB) publish() {
	views := make(map[string]*tableSnap, len(db.tables))
	for name, t := range db.tables {
		if t.view == nil {
			t.view = t.newView()
		}
		views[name] = t.view
	}
	db.root.Store(&Snapshot{lsn: db.lsn, schema: db.schema, tables: views, marks: db.marks})
}

// logRecord appends one commit's record to the WAL and, under SyncOnCommit,
// syncs it. The caller holds writeMu. The first failure sticks (walErr).
func (db *DB) logRecord(rec []byte) error {
	if db.log == nil {
		return nil
	}
	err := db.log.Append(rec)
	if err == nil && db.opts.SyncOnCommit {
		if err = db.log.Sync(); err == nil {
			db.synced.Add(1)
		}
	}
	if err != nil {
		db.walErr = err
		return err
	}
	db.logged.Add(1)
	return nil
}

// writable reports why the database refuses a commit or DDL, if it does.
// The caller holds writeMu.
func (db *DB) writable() error {
	if db.closed.Load() {
		return errClosed
	}
	return db.walErr
}

// Schema returns a copy of the schema.
func (db *DB) Schema() *relation.Schema {
	return db.root.Load().schema.Clone()
}

// Rel returns the definition of a relation, or nil.
func (db *DB) Rel(name string) *relation.RelDef {
	return db.root.Load().Rel(name)
}

// DefineRelation adds a relation to the schema (DDL). Logged for recovery.
func (db *DB) DefineRelation(def *relation.RelDef) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writable(); err != nil {
		return err
	}
	schema := db.schema.Clone()
	if err := schema.Add(def); err != nil {
		return err
	}
	db.schema = schema
	db.tables[def.Name] = newTable(def)
	db.lsn++
	err := db.logRecord(db.withMarks(encodeDDL(def)))
	db.applyMarks()
	db.publish()
	if err == nil && db.log != nil {
		db.commitsSinceCheckpoint.Add(1)
	}
	return err
}

// DefineSchema defines every relation of the given schema.
func (db *DB) DefineSchema(s *relation.Schema) error {
	for _, name := range s.Names() {
		def := s.Rel(name)
		attrs := make([]relation.Attr, len(def.Attrs))
		copy(attrs, def.Attrs)
		if err := db.DefineRelation(&relation.RelDef{Name: def.Name, Attrs: attrs}); err != nil {
			return err
		}
	}
	return nil
}

var errClosed = fmt.Errorf("storage: database is closed")

// Count returns the number of tuples in the relation.
func (db *DB) Count(rel string) int {
	return db.root.Load().Count(rel)
}

// Scan calls fn for every tuple of the relation in key order, over the
// published state: no lock is held, so fn may call back into the DB. fn
// returning false stops the scan.
func (db *DB) Scan(rel string, fn func(relation.Tuple) bool) {
	db.root.Load().Scan(rel, fn)
}

// Tuples returns a copied slice of all tuples in the relation, in key order.
func (db *DB) Tuples(rel string) []relation.Tuple {
	var out []relation.Tuple
	db.Scan(rel, func(t relation.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Instance exports the whole database as a relation.Instance (for oracles,
// stats and tests): one published root, so a consistent cut.
func (db *DB) Instance() relation.Instance {
	return db.root.Load().Instance()
}

// Stats summarises the database for reports.
type Stats struct {
	Relations int
	Tuples    int
	WALBytes  int64
}

// Stats returns current sizes.
func (db *DB) Stats() Stats {
	root := db.root.Load()
	s := Stats{Relations: root.schema.Len()}
	for _, v := range root.tables {
		s.Tuples += v.primary.Len()
	}
	if db.log != nil {
		s.WALBytes = db.log.Size()
	}
	return s
}

// RelationStats summarises one relation.
type RelationStats struct {
	Name   string
	Tuples int
	Bytes  int64 // encoded tuple volume (sum of primary key lengths)
}

// CommitStats counts what commits asked of the WAL.
type CommitStats struct {
	// Commits is the number of commits (DDL included) whose record was
	// logged; zero for a memory-only database.
	Commits uint64
	// Syncs is the number of fsyncs those commits issued: one each under
	// SyncOnCommit, none otherwise.
	Syncs uint64
}

// DetailedStats is the storage command's full engine report: per-relation
// row/byte counts, WAL segment/size figures, changelog-spill counters and
// the logged-commit and fsync counts.
type DetailedStats struct {
	LSN         uint64
	Relations   []RelationStats
	WALBytes    int64
	WAL         wal.SegmentedStats
	GroupCommit CommitStats
	// SpillHits / SpillMisses count Changes calls answered from retained
	// WAL segments and ones whose segment window was unavailable.
	SpillHits   uint64
	SpillMisses uint64
}

// DetailedStats returns the engine report.
func (db *DB) DetailedStats() DetailedStats {
	root := db.root.Load()
	out := DetailedStats{
		LSN:         root.lsn,
		GroupCommit: CommitStats{Commits: db.logged.Load(), Syncs: db.synced.Load()},
		SpillHits:   db.spillHits.Load(),
		SpillMisses: db.spillMisses.Load(),
	}
	for _, name := range root.schema.Names() {
		rs := RelationStats{Name: name, Tuples: root.Count(name)}
		root.tables[name].primary.AscendAll(func(key string, _ relation.Tuple) bool {
			rs.Bytes += int64(len(key))
			return true
		})
		out.Relations = append(out.Relations, rs)
	}
	if db.log != nil {
		out.WAL = db.log.Stats()
		out.WALBytes = out.WAL.Bytes
	}
	return out
}

// LSN returns the commit sequence number of the published state — 0 for a
// database nothing was ever committed to. Export watermarks taken against it
// stay meaningful across process lives.
func (db *DB) LSN() uint64 {
	return db.root.Load().lsn
}

// Dir returns the durability directory ("" for memory-only databases).
func (db *DB) Dir() string { return db.opts.Dir }

// changelogLimit resolves the configured per-relation changelog bound.
func (db *DB) changelogLimit() int {
	if db.opts.ChangelogLimit == 0 {
		return DefaultChangelogLimit
	}
	return db.opts.ChangelogLimit
}

// Changes reports the tuples committed into the relation after sinceLSN, in
// commit order. The hot path reads the relation's in-memory changelog. When
// the watermark has fallen out of the ring — evicted by overflow, or older
// than the snapshot a restart recovered from — the delta is served from
// the retained WAL segments instead (the changelog spill path), so
// long-lived hot relations and reopened databases keep answering
// incrementally. ok is false only when the history is truly unavailable: a
// delete intervened after sinceLSN (deletes are not expressible as a
// monotone insert delta), the covering segments were pruned, the relation
// is unknown, or the database is memory-only with an overflowed ring. The
// caller must then fall back to a full scan. ok is true with an empty
// delta when nothing changed.
//
// The changelog belongs to the writer, so Changes reads it under writeMu;
// a peer calls it from the actor loop that commits, so the lock is
// uncontended there.
func (db *DB) Changes(rel string, sinceLSN uint64) (inserts []relation.Tuple, ok bool) {
	db.writeMu.Lock()
	t := db.tables[rel]
	if t == nil {
		db.writeMu.Unlock()
		return nil, false
	}
	lsn, poisoned := db.lsn, t.lostBelow
	if sinceLSN >= poisoned && sinceLSN >= t.evictedBelow {
		inserts = t.memChanges(sinceLSN)
		db.writeMu.Unlock()
		return inserts, true
	}
	arity := t.def.Arity()
	db.writeMu.Unlock()
	if sinceLSN < poisoned || db.log == nil {
		return nil, false
	}
	return db.changesFromSegments(rel, arity, sinceLSN, lsn)
}

// memChanges reads the in-memory changelog after sinceLSN; the caller holds
// writeMu. The ring is LSN-ordered, so the window is found by binary search
// and costs O(log n + delta).
func (t *table) memChanges(sinceLSN uint64) []relation.Tuple {
	r := &t.changes
	lo := r.after(sinceLSN)
	if lo >= r.n {
		return nil
	}
	inserts := make([]relation.Tuple, r.n-lo)
	for i := range inserts {
		inserts[i] = r.at(lo + i).tuple
	}
	return inserts
}

// errSpillDelete aborts a segment scan when a delete on the requested
// relation sits inside the window: the delta cannot be expressed as
// inserts.
var errSpillDelete = fmt.Errorf("storage: delete inside spill window")

// changesFromSegments serves a changelog delta from the retained WAL
// segments: every record in (sinceLSN, lsn] is decoded and the requested
// relation's inserts collected in commit order. No database lock is held:
// sealed segments are immutable, and the active one's records up to a
// published LSN are fully written.
func (db *DB) changesFromSegments(rel string, arity int, sinceLSN, lsn uint64) ([]relation.Tuple, bool) {
	if lsn <= sinceLSN {
		db.spillHits.Add(1)
		return nil, true
	}
	var out []relation.Tuple
	err := db.log.ReadRange(sinceLSN+1, lsn, func(_ uint64, payload []byte) error {
		delta, err := decodeRelOps(payload, rel, arity)
		if err != nil {
			return err
		}
		out = append(out, delta...)
		return nil
	})
	if err != nil {
		db.spillMisses.Add(1)
		return nil, false
	}
	db.spillHits.Add(1)
	return out, true
}

// Close closes the database. Durable databases with commits since the last
// checkpoint are checkpointed first, so reopening a long-lived peer loads
// the snapshot instead of replaying the entire log; otherwise the WAL is
// synced. Staged marks are logged first. An in-flight background checkpoint
// is waited out (ckptMu), and a sticky WAL or background-checkpoint failure
// is reported here.
func (db *DB) Close() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.writeMu.Lock()
	if db.closed.Load() {
		db.writeMu.Unlock()
		return nil
	}
	// Staged marks get the record they were waiting for.
	if len(db.pending) > 0 && db.walErr == nil {
		db.logMarksLocked()
	}
	db.closed.Store(true)
	err := db.walErr
	db.writeMu.Unlock()
	if db.log == nil {
		return nil
	}
	if serr := db.takeCheckpointErr(); err == nil {
		err = serr
	}
	// No commit can start any more, so the final checkpoint writes the
	// last published state.
	if db.commitsSinceCheckpoint.Load() > 0 {
		if cerr := db.checkpointPinned(); err == nil {
			err = cerr
		}
	} else if serr := db.log.Sync(); err == nil {
		err = serr
	}
	if cerr := db.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// takeCheckpointErr claims the sticky background-checkpoint failure.
func (db *DB) takeCheckpointErr() error {
	db.ckptErrMu.Lock()
	defer db.ckptErrMu.Unlock()
	err := db.ckptErr
	db.ckptErr = nil
	return err
}

// recordCheckpointErr stores a background-checkpoint failure for the next
// explicit Checkpoint or Close to report.
func (db *DB) recordCheckpointErr(err error) {
	db.ckptErrMu.Lock()
	if db.ckptErr == nil {
		db.ckptErr = err
	}
	db.ckptErrMu.Unlock()
}

// retainSegments resolves the configured checkpoint retention.
func (db *DB) retainSegments() int {
	switch {
	case db.opts.RetainSegments == 0:
		return DefaultRetainSegments
	case db.opts.RetainSegments < 0:
		return 0
	}
	return db.opts.RetainSegments
}
