// Package storage implements coDB's embedded relational engine: the Local
// Database (LDB) each peer manages. Relations are sets of typed tuples
// (set semantics, as required by the update algorithm's "T′ = T \ R" step).
// Every relation owns one lock, a B+tree primary index over the
// order-preserving tuple encoding, the secondary indexes snapshot probes
// built, a changelog ring, and a cached snapshot view (an O(1) copy-on-write
// clone of the trees). Durability is optional: when opened with a
// directory, every commit is logged to a write-ahead log — through a
// group-commit pipeline when SyncOnCommit is set, so concurrent commits
// share fsyncs — and periodically checkpointed into a snapshot file;
// recovery loads the snapshot and replays the log.
//
// Concurrency: readers and writers coordinate per relation, so transactions
// touching disjoint relations commit in parallel (a peer commits from its
// one actor loop, so in practice each database has a single committer).
// Commit sequence numbers stay globally monotone: LSNs are assigned under a
// short ordering mutex while the committing transaction already holds its
// relation locks, which makes the WAL order equal the LSN order and lets
// Snapshot pin a consistent cut by holding every relation lock at once.
// Transactions stage their writes privately and apply them atomically at
// Commit.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	// before it becomes visible to any reader). It engages the
	// group-commit pipeline, under which concurrent commits share fsyncs
	// — one per batch — so sync-on-commit is viable under multi-writer
	// load.
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
	// mu guards the schema, the tables map and the closed flag. Reads and
	// commits hold it shared (table locks provide their isolation); DDL and
	// Close hold it exclusively.
	mu     sync.RWMutex
	schema *relation.Schema
	tables map[string]*table
	opts   Options
	log    *wal.Segmented      // nil when memory-only
	group  *wal.GroupCommitter // nil unless durable with SyncOnCommit
	closed bool

	// ckptMu serialises checkpoints (explicit, automatic-background, and
	// the final one in Close). It is never held while commits are blocked:
	// a checkpoint pins a Snapshot — a brief all-relation read lock — and
	// writes it with no database locks held. Lock order: ckptMu before
	// db.mu.
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

	// commitMu orders commits: LSN assignment and the WAL append/enqueue
	// happen together under it, so the log's record order always equals
	// the LSN order. It is held only for that short window, never during
	// fsyncs (group-commit path) or table application.
	commitMu sync.Mutex

	// lsnMu guards the commit sequence state below.
	lsnMu sync.Mutex
	// lsn is the monotone commit sequence number: every committed
	// transaction (DDL included) gets the next value. It survives restarts
	// (persisted in the snapshot, advanced by WAL replay).
	lsn uint64
	// visible is the largest LSN v such that every commit with LSN <= v
	// has fully applied. With concurrent commits, a transaction with a
	// higher LSN can finish applying before one with a lower LSN; export
	// watermarks must not advance past unapplied commits, so LSN() reports
	// visible, not lsn.
	visible uint64
	// inflight holds the LSNs assigned but not yet fully applied.
	inflight map[uint64]struct{}

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
		schema:   relation.NewSchema(),
		tables:   make(map[string]*table),
		opts:     opts,
		inflight: make(map[uint64]struct{}),
	}
	if opts.Dir == "" {
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
	db.visible = db.lsn
	// The group-commit pipeline only pays when there are fsyncs to share;
	// without SyncOnCommit the inline append under commitMu is cheaper
	// than a cross-goroutine round-trip per commit.
	if opts.SyncOnCommit {
		db.group = wal.NewGroupCommitter(log)
	}
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

// assignLSN allocates the next commit sequence number and marks it
// in-flight. Callers hold commitMu (for ordering) and their table locks
// (so the LSN becomes visible to full-cut readers only when applied).
func (db *DB) assignLSN() uint64 {
	db.lsnMu.Lock()
	db.lsn++
	l := db.lsn
	db.inflight[l] = struct{}{}
	db.lsnMu.Unlock()
	return l
}

// finishCommit retires an in-flight LSN and advances the visible horizon to
// the largest fully-applied prefix.
func (db *DB) finishCommit(l uint64) {
	db.lsnMu.Lock()
	delete(db.inflight, l)
	v := db.lsn
	for pending := range db.inflight {
		if pending-1 < v {
			v = pending - 1
		}
	}
	if v > db.visible {
		db.visible = v
	}
	db.lsnMu.Unlock()
}

// appendRecord ships one WAL record. Callers hold commitMu, so records are
// enqueued (or appended) in LSN order. On the group-commit path (sync on
// commit) the returned channel delivers the durability outcome once the
// record's batch is fsynced — callers must receive from it before making the
// commit visible, so sync-on-commit keeps its visible-implies-durable
// guarantee; otherwise the record is appended, unsynced, before returning.
func (db *DB) appendRecord(rec []byte) (<-chan error, error) {
	if db.log == nil {
		return nil, nil
	}
	if db.group != nil {
		return db.group.Commit(rec, true), nil
	}
	return nil, db.log.Append(rec)
}

// Schema returns a snapshot copy of the schema.
func (db *DB) Schema() *relation.Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schema.Clone()
}

// Rel returns the definition of a relation, or nil.
func (db *DB) Rel(name string) *relation.RelDef {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schema.Rel(name)
}

// DefineRelation adds a relation to the schema (DDL). Logged for recovery.
func (db *DB) DefineRelation(def *relation.RelDef) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed
	}
	if err := db.schema.Add(def); err != nil {
		return err
	}
	db.tables[def.Name] = newTable(def)
	db.commitMu.Lock()
	l := db.assignLSN()
	var wait <-chan error
	var err error
	if db.log != nil {
		wait, err = db.appendRecord(encodeDDL(def))
	}
	db.commitMu.Unlock()
	// Await durability before the LSN becomes visible, as Tx.Commit does:
	// a watermark must never reference a commit whose record could still
	// be lost. (The schema mutation itself is invisible until db.mu is
	// released either way.)
	if wait != nil {
		if werr := <-wait; err == nil {
			err = werr
		}
	}
	db.finishCommit(l)
	if err != nil {
		return err
	}
	if db.log != nil {
		db.commitsSinceCheckpoint.Add(1)
	}
	return nil
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

// hasKey reports whether the tuple whose key (tuple.Key()) is given is
// present in the relation.
func (db *DB) hasKey(rel, key string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return false
	}
	t.mu.RLock()
	_, ok := t.primary.Get(key)
	t.mu.RUnlock()
	return ok
}

// Count returns the number of tuples in the relation.
func (db *DB) Count(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.primary.Len()
}

// Scan calls fn for every tuple of the relation in key order, under the
// relation's read lock; fn must not call back into the DB's write methods.
// fn returning false stops the scan.
func (db *DB) Scan(rel string, fn func(relation.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.primary.AscendValues(fn)
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
// stats and tests). Every relation is locked at once, so the export is a
// consistent cut.
func (db *DB) Instance() relation.Instance {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := db.sortedTableNames()
	unlock := db.rlockTables(names)
	defer unlock()
	in := relation.NewInstance()
	for _, name := range names {
		db.tables[name].primary.AscendValues(func(row relation.Tuple) bool {
			in.Insert(name, row)
			return true
		})
	}
	return in
}

// sortedTableNames returns the relation names in the global lock order
// (lexicographic; db.mu held).
func (db *DB) sortedTableNames() []string {
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// rlockTables read-locks the named tables in the global (relation name)
// lock order and returns the matching unlock. Holding every table lock at
// once blocks any in-flight commit from being half-visible: a commit holds
// all its table write locks from LSN assignment through application.
func (db *DB) rlockTables(names []string) func() {
	for _, name := range names {
		db.tables[name].mu.RLock()
	}
	return func() {
		for _, name := range names {
			db.tables[name].mu.RUnlock()
		}
	}
}

// Stats summarises the database for reports.
type Stats struct {
	Relations int
	Tuples    int
	WALBytes  int64
}

// Stats returns current sizes.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{Relations: db.schema.Len()}
	for _, t := range db.tables {
		t.mu.RLock()
		s.Tuples += t.primary.Len()
		t.mu.RUnlock()
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

// DetailedStats is the storage command's full engine report: per-relation
// row/byte counts, WAL segment/size figures, changelog-spill counters and
// group-commit batching counters.
type DetailedStats struct {
	LSN         uint64
	Relations   []RelationStats
	WALBytes    int64
	WAL         wal.SegmentedStats
	GroupCommit wal.GroupStats
	// GroupCommitEnabled distinguishes "no batches yet" from "no pipeline"
	// (memory-only, or not syncing on commit).
	GroupCommitEnabled bool
	// SpillHits / SpillMisses count Changes calls answered from retained
	// WAL segments and ones whose segment window was unavailable.
	SpillHits   uint64
	SpillMisses uint64
}

// DetailedStats returns the engine report.
func (db *DB) DetailedStats() DetailedStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := DetailedStats{LSN: db.LSN()}
	for _, name := range db.sortedTableNames() {
		t := db.tables[name]
		t.mu.RLock()
		rs := RelationStats{Name: name, Tuples: t.primary.Len()}
		t.primary.AscendAll(func(key string, _ relation.Tuple) bool {
			rs.Bytes += int64(len(key))
			return true
		})
		t.mu.RUnlock()
		out.Relations = append(out.Relations, rs)
	}
	if db.log != nil {
		out.WAL = db.log.Stats()
		out.WALBytes = out.WAL.Bytes
	}
	if db.group != nil {
		out.GroupCommit = db.group.Stats()
		out.GroupCommitEnabled = true
	}
	out.SpillHits = db.spillHits.Load()
	out.SpillMisses = db.spillMisses.Load()
	return out
}

// LSN returns the current commit sequence number: the largest LSN whose
// commit (and every earlier one) is fully applied — 0 for a database
// nothing was ever committed to. Export watermarks taken against it stay
// meaningful across concurrent commits and process lives.
func (db *DB) LSN() uint64 {
	db.lsnMu.Lock()
	defer db.lsnMu.Unlock()
	return db.visible
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
// The delta is clamped to the visible LSN horizon, so a watermark advanced
// to LSN() never skips a commit still applying concurrently. A
// segment-served delta can be a superset of the exact one: an insert
// logged by a transaction that raced another inserter of the same tuple
// re-appears, which set-semantics consumers absorb.
func (db *DB) Changes(rel string, sinceLSN uint64) (inserts []relation.Tuple, ok bool) {
	db.mu.RLock()
	t := db.tables[rel]
	if t == nil {
		db.mu.RUnlock()
		return nil, false
	}
	t.mu.RLock()
	visible := db.LSN()
	poisoned := t.lostBelow
	if sinceLSN >= poisoned && sinceLSN >= t.evictedBelow {
		inserts = t.memChangesLocked(sinceLSN, visible)
		t.mu.RUnlock()
		db.mu.RUnlock()
		return inserts, true
	}
	arity := t.def.Arity()
	t.mu.RUnlock()
	db.mu.RUnlock()
	if sinceLSN < poisoned || db.log == nil {
		return nil, false
	}
	return db.changesFromSegments(rel, arity, sinceLSN, visible)
}

// memChangesLocked reads the in-memory changelog for (sinceLSN, visible];
// the caller holds the table read lock. The ring is LSN-ordered, so the
// window is found by binary search and costs O(log n + delta).
func (t *table) memChangesLocked(sinceLSN, visible uint64) []relation.Tuple {
	r := &t.changes
	lo, hi := r.after(sinceLSN), r.after(visible)
	if lo >= hi {
		return nil
	}
	inserts := make([]relation.Tuple, hi-lo)
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
// segments: every record in (sinceLSN, visible] is decoded and the
// requested relation's inserts collected in commit order. No database
// locks are held — the segments are immutable except the active tail,
// whose records up to the visible horizon are fully written.
func (db *DB) changesFromSegments(rel string, arity int, sinceLSN, visible uint64) ([]relation.Tuple, bool) {
	if visible <= sinceLSN {
		db.spillHits.Add(1)
		return nil, true
	}
	var out []relation.Tuple
	err := db.log.ReadRange(sinceLSN+1, visible, func(_ uint64, payload []byte) error {
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
// synced as before. An in-flight background checkpoint is waited out
// (ckptMu), the group-commit pipeline drained, and any sticky background
// checkpoint failure surfaced here.
func (db *DB) Close() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	log := db.log
	db.mu.Unlock()
	if log == nil {
		return nil
	}
	var err error
	if db.group != nil {
		err = db.group.Close()
	}
	if serr := db.takeCheckpointErr(); err == nil {
		err = serr
	}
	// db.mu was released above: no commit can be in flight (they hold it
	// shared for their whole span, and new ones fail on closed), so the
	// final checkpoint pins a quiescent state.
	if db.commitsSinceCheckpoint.Load() > 0 {
		if cerr := db.checkpointPinned(); err == nil {
			err = cerr
		}
	} else if serr := log.Sync(); err == nil {
		err = serr
	}
	if cerr := log.Close(); err == nil {
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
