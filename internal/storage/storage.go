// Package storage implements coDB's embedded relational engine: the Local
// Database (LDB) each peer manages. Relations are sets of typed tuples
// (set semantics, as required by the update algorithm's "T′ = T \ R" step).
// Each relation is hash-partitioned into Options.Shards shards; every shard
// owns its own lock, B+tree primary index over the order-preserving tuple
// encoding, secondary indexes, changelog segment, and cached snapshot view
// (an O(1) copy-on-write clone of the trees). Durability is optional: when
// opened with a directory, every commit is logged to a write-ahead log —
// through a group-commit pipeline when SyncOnCommit is set, so concurrent
// commits share fsyncs — and periodically checkpointed into a snapshot
// file; recovery loads the snapshot and replays the log.
//
// Concurrency: readers and writers coordinate per shard, so transactions
// touching disjoint shards commit in parallel. Commit sequence numbers stay
// globally monotone: LSNs are assigned under a short ordering mutex while
// the committing transaction already holds its shard locks, which makes the
// WAL order equal the LSN order and lets Snapshot pin a consistent cut by
// holding every shard lock at once. Transactions stage their writes
// privately and apply them atomically at Commit.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"codb/internal/btree"
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
	// ChangelogLimit bounds the per-shard in-memory changelog backing
	// Changes (0 selects DefaultChangelogLimit, negative disables change
	// capture entirely). When a shard's changelog overflows, its oldest
	// entries are dropped and Changes reports "history lost" for
	// watermarks that precede the drop.
	ChangelogLimit int
	// Shards is the number of hash partitions per relation. 0 selects the
	// snapshot-recorded count for recovered databases (1 for fresh ones);
	// 1 preserves the unsharded layout exactly. Tuples are routed by a
	// hash of their order-preserving encoding, so any shard count yields
	// the same logical contents — merged scans are always in global key
	// order — and a database may be reopened with a different count.
	Shards int
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

// DefaultChangelogLimit is the per-shard changelog bound used when
// Options.ChangelogLimit is zero.
const DefaultChangelogLimit = 4096

// DefaultRetainSegments is the number of checkpoint-superseded WAL
// segments kept for changelog spill when Options.RetainSegments is zero.
const DefaultRetainSegments = 4

// maxShards bounds Options.Shards (and the snapshot-recorded count) to
// keep per-relation overhead sane.
const maxShards = 1 << 12

// DB is an embedded relational database.
type DB struct {
	// mu guards the schema, the tables map and the closed flag. Reads and
	// commits hold it shared (shard locks provide their isolation); DDL,
	// IndexOn, Checkpoint and Close hold it exclusively.
	mu      sync.RWMutex
	schema  *relation.Schema
	tables  map[string]*table
	opts    Options
	nshards int
	log     *wal.Segmented      // nil when memory-only
	group   *wal.GroupCommitter // nil unless durable with SyncOnCommit
	closed  bool

	// ckptMu serialises checkpoints (explicit, automatic-background, and
	// the final one in Close). It is never held while commits are blocked:
	// a checkpoint pins a Snapshot — a brief all-shard read lock — and
	// writes it with no database locks held. Lock order: ckptMu before
	// db.mu.
	ckptMu sync.Mutex
	// ckptErrMu guards ckptErr, the sticky failure of a background
	// checkpoint, surfaced by the next explicit Checkpoint or Close.
	ckptErrMu sync.Mutex
	ckptErr   error
	// recoveredCkpt is the checkpoint LSN the last loaded snapshot
	// recorded: WAL replay skips records at or below it (they may survive
	// in retained segments). recoveredSnapVersion is that snapshot's
	// format version (0 when none was found), which gates the legacy
	// log.wal migration.
	recoveredCkpt        uint64
	recoveredSnapVersion uint32

	// spillHits / spillMisses count Changes calls served from retained
	// WAL segments and ones that found the segment window unavailable.
	spillHits   atomic.Uint64
	spillMisses atomic.Uint64

	// commitMu orders commits: LSN assignment and the WAL append/enqueue
	// happen together under it, so the log's record order always equals
	// the LSN order. It is held only for that short window, never during
	// fsyncs (group-commit path) or shard application.
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

	// captureSeq totally orders changelog entries within one commit LSN
	// (a multi-tuple commit captures across several shards; the merge in
	// Changes restores its op order by this sequence).
	captureSeq atomic.Uint64

	commitsSinceCheckpoint atomic.Int64
}

const (
	snapshotName = "snapshot.cdb"
	logName      = "log.wal"
)

// Open opens (or creates) a database. With a Dir, prior state is recovered
// from the snapshot and WAL in that directory.
func Open(opts Options) (*DB, error) {
	if opts.Shards < 0 || opts.Shards > maxShards {
		return nil, fmt.Errorf("storage: Shards = %d out of range [0, %d]", opts.Shards, maxShards)
	}
	db := &DB{
		schema:   relation.NewSchema(),
		tables:   make(map[string]*table),
		opts:     opts,
		nshards:  max(1, opts.Shards),
		inflight: make(map[uint64]struct{}),
	}
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	// A crash can leave a half-written snapshot behind; it was never
	// renamed into place, so it holds nothing durable.
	os.Remove(filepath.Join(opts.Dir, snapshotName) + ".tmp")
	if err := db.loadSnapshot(filepath.Join(opts.Dir, snapshotName)); err != nil {
		return nil, err
	}
	migrate, err := db.replayLegacyLog()
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenSegmented(opts.Dir, db.lsn,
		wal.SegmentedOptions{SegmentBytes: opts.SegmentBytes}, db.applyLogRecord)
	if err != nil {
		return nil, err
	}
	db.log = log
	db.visible = db.lsn
	if migrate {
		// The legacy records live nowhere but the old file: checkpoint the
		// replayed state before dropping it. One-time, at open, unshared —
		// the stop-the-world cost is irrelevant here.
		if err := db.checkpointPinned(); err != nil {
			db.log.Close()
			return nil, fmt.Errorf("storage: migrate legacy wal: %w", err)
		}
		os.Remove(filepath.Join(opts.Dir, logName))
	}
	// The group-commit pipeline only pays when there are fsyncs to share;
	// without SyncOnCommit the inline append under commitMu is cheaper
	// than a cross-goroutine round-trip per commit.
	if opts.SyncOnCommit {
		db.group = wal.NewGroupCommitter(log)
	}
	return db, nil
}

// replayLegacyLog migrates a pre-segment "log.wal" file: its records are
// replayed on top of the snapshot and the caller then checkpoints and
// deletes the file. Reports whether a legacy log was found and replayed.
//
// Legacy records carry no LSNs, so a record cannot individually be
// recognised as checkpoint-covered. Instead the snapshot version
// disambiguates the migration crash window: only the new engine writes v4
// snapshots, and it deletes log.wal right after its first one — so a
// log.wal alongside a v4 snapshot is a remnant whose every record that
// checkpoint already covers, and replaying it would double-apply them
// under inflated LSNs. It is discarded instead.
func (db *DB) replayLegacyLog() (bool, error) {
	path := filepath.Join(db.opts.Dir, logName)
	if _, err := os.Stat(path); err != nil {
		return false, nil
	}
	if db.recoveredSnapVersion >= 4 {
		os.Remove(path)
		return false, nil
	}
	l, err := wal.Open(path, func(payload []byte) error {
		return db.applyLogRecord(db.lsn+1, payload)
	})
	if err != nil {
		return false, err
	}
	l.Close()
	return true, nil
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
// in-flight. Callers hold commitMu (for ordering) and their shard locks
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
	db.tables[def.Name] = newTable(def, db.nshards)
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

// IndexOn creates a secondary index over one attribute of a relation
// (maintained per shard), enabling ScanEq/ScanRange on that attribute.
// Idempotent, and a no-op for the first attribute, which the primary index
// already orders (see shard.index).
func (db *DB) IndexOn(rel, attr string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[rel]
	if t == nil {
		return fmt.Errorf("storage: unknown relation %q", rel)
	}
	pos := t.def.AttrIndex(attr)
	if pos < 0 {
		return fmt.Errorf("storage: relation %s has no attribute %q", rel, attr)
	}
	// db.mu is held exclusively: no commit and no Snapshot runs beside this.
	for _, s := range t.shards {
		if s.index(pos) == nil {
			s.second[pos] = secondaryOf(s.primary, pos)
			s.snap = nil // the next snapshot pins the new index too
		}
	}
	return nil
}

var errClosed = fmt.Errorf("storage: database is closed")

// Has reports whether the tuple is present in the relation.
func (db *DB) Has(rel string, tuple relation.Tuple) bool {
	return db.HasKey(rel, tuple.Key())
}

// HasKey is Has for a caller that already holds the tuple's key
// (tuple.Key()), sparing the re-encoding.
func (db *DB) HasKey(rel, key string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return false
	}
	s := t.shardFor(key)
	s.mu.RLock()
	_, ok := s.primary.Get(key)
	s.mu.RUnlock()
	return ok
}

// Count returns the number of tuples in the relation. All shards are
// locked at once, so the count is a consistent cut.
func (db *DB) Count(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return 0
	}
	t.rlockAll()
	defer t.runlockAll()
	n := 0
	for _, s := range t.shards {
		n += s.primary.Len()
	}
	return n
}

// Scan calls fn for every tuple of the relation in global key order (a
// k-way merge over the per-shard primary indexes), under the relation's
// shard read locks; fn must not call back into the DB's write methods. fn
// returning false stops the scan.
func (db *DB) Scan(rel string, fn func(relation.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil {
		return
	}
	t.rlockAll()
	defer t.runlockAll()
	t.scanLocked(fn)
}

// scanLocked merges the shard primaries in key order (shard locks held).
func (t *table) scanLocked(fn func(relation.Tuple) bool) {
	scanMerged(t.indexes(0), "", "", fn)
}

// scanMerged calls fn for the rows of the per-shard trees whose keys lie in
// [from, to), in global key order; empty bounds are open. A single shard is
// scanned leaf by leaf with no merge; fn returning false stops the scan.
func scanMerged(trees []*btree.Map[relation.Tuple], from, to string, fn func(relation.Tuple) bool) {
	if len(trees) == 1 {
		if from == "" && to == "" {
			trees[0].AscendValues(fn)
			return
		}
		trees[0].Ascend(from, to, func(_ string, row relation.Tuple) bool { return fn(row) })
		return
	}
	mergeAscend(itersFrom(trees, from), func(key string, row relation.Tuple) bool {
		if to != "" && key >= to {
			return false // merged order: once the minimum passes the bound, all do
		}
		return fn(row)
	})
}

// scanPrefix is scanMerged over the keys that start with prefix.
func scanPrefix(trees []*btree.Map[relation.Tuple], prefix string, fn func(relation.Tuple) bool) {
	scanMerged(trees, prefix, prefixSuccessor(prefix), fn)
}

// ScanEq scans tuples whose attribute at position pos equals v, using the
// per-shard secondary indexes when they exist and a full merged scan
// otherwise. Either way tuples arrive in a deterministic order (secondary:
// by attr value ‖ tuple key; fallback: global key order).
func (db *DB) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil || pos < 0 || pos >= t.def.Arity() {
		return
	}
	t.rlockAll()
	defer t.runlockAll()
	if idx := t.indexes(pos); idx != nil {
		scanPrefix(idx, string(relation.EncodeValue(nil, v)), fn)
		return
	}
	t.scanLocked(func(tp relation.Tuple) bool {
		if tp[pos] == v {
			return fn(tp)
		}
		return true
	})
}

// ScanRange scans tuples whose attribute at position pos lies within the
// given bounds (each bound optional: nil means unbounded; inclusive).
// With a secondary index on the attribute the scan touches only the range;
// otherwise it falls back to a filtered merged scan.
func (db *DB) ScanRange(rel string, pos int, lo, hi *relation.Value, fn func(relation.Tuple) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[rel]
	if t == nil || pos < 0 || pos >= t.def.Arity() {
		return
	}
	t.rlockAll()
	defer t.runlockAll()
	if idx := t.indexes(pos); idx != nil {
		from, to := "", ""
		if lo != nil {
			from = string(relation.EncodeValue(nil, *lo))
		}
		if hi != nil {
			to = prefixSuccessor(string(relation.EncodeValue(nil, *hi)))
		}
		scanMerged(idx, from, to, fn)
		return
	}
	within := func(v relation.Value) bool {
		if lo != nil && v.Compare(*lo) < 0 {
			return false
		}
		if hi != nil && v.Compare(*hi) > 0 {
			return false
		}
		return true
	}
	t.scanLocked(func(tp relation.Tuple) bool {
		if within(tp[pos]) {
			return fn(tp)
		}
		return true
	})
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix ("" when no such string exists).
func prefixSuccessor(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
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
// stats and tests). Every shard of every relation is locked at once, so
// the export is a consistent cut.
func (db *DB) Instance() relation.Instance {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := db.sortedTableNames()
	unlock := db.rlockTables(names)
	defer unlock()
	in := relation.NewInstance()
	for _, name := range names {
		t := db.tables[name]
		for _, s := range t.shards {
			s.primary.AscendValues(func(row relation.Tuple) bool {
				in.Insert(name, row)
				return true
			})
		}
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

// rlockTables read-locks every shard of the named tables in the global
// (relation name, shard index) order and returns the matching unlock.
// Holding every shard lock at once blocks any in-flight commit from being
// half-visible: a commit holds all its shard write locks from LSN
// assignment through application.
func (db *DB) rlockTables(names []string) func() {
	for _, name := range names {
		db.tables[name].rlockAll()
	}
	return func() {
		for _, name := range names {
			db.tables[name].runlockAll()
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
		t.rlockAll()
		for _, sh := range t.shards {
			s.Tuples += sh.primary.Len()
		}
		t.runlockAll()
	}
	if db.log != nil {
		s.WALBytes = db.log.Size()
	}
	return s
}

// ShardStats summarises one shard of one relation.
type ShardStats struct {
	Tuples int
	Bytes  int64 // encoded tuple volume (sum of primary key lengths)
}

// RelationStats is the per-shard breakdown of one relation.
type RelationStats struct {
	Name   string
	Shards []ShardStats
}

// DetailedStats is the storage command's full engine report: per-shard
// row/byte counts, WAL segment/size figures, changelog-spill counters and
// group-commit batching counters.
type DetailedStats struct {
	Shards      int
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

// DetailedStats returns the per-shard engine report.
func (db *DB) DetailedStats() DetailedStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := DetailedStats{Shards: db.nshards, LSN: db.LSN()}
	for _, name := range db.sortedTableNames() {
		t := db.tables[name]
		rs := RelationStats{Name: name, Shards: make([]ShardStats, len(t.shards))}
		t.rlockAll()
		for i, sh := range t.shards {
			st := ShardStats{Tuples: sh.primary.Len()}
			sh.primary.AscendAll(func(key string, _ relation.Tuple) bool {
				st.Bytes += int64(len(key))
				return true
			})
			rs.Shards[i] = st
		}
		t.runlockAll()
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

// Shards returns the number of hash partitions per relation.
func (db *DB) Shards() int { return db.nshards }

// Dir returns the durability directory ("" for memory-only databases).
func (db *DB) Dir() string { return db.opts.Dir }

// changelogLimit resolves the configured per-shard changelog bound.
func (db *DB) changelogLimit() int {
	if db.opts.ChangelogLimit == 0 {
		return DefaultChangelogLimit
	}
	return db.opts.ChangelogLimit
}

// Changes reports the tuples committed into the relation after sinceLSN, in
// commit order. The hot path merges the per-shard in-memory changelogs (by
// LSN, then by capture sequence within a multi-tuple commit). When the
// watermark has fallen out of the rings — evicted by overflow, or older
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
	t.rlockAll()
	visible := db.LSN()
	var poisoned, evicted uint64
	for _, s := range t.shards {
		poisoned = max(poisoned, s.lostBelow)
		evicted = max(evicted, s.evictedBelow)
	}
	if sinceLSN >= poisoned && sinceLSN >= evicted {
		inserts = t.memChangesLocked(sinceLSN, visible)
		t.runlockAll()
		db.mu.RUnlock()
		return inserts, true
	}
	arity := t.def.Arity()
	t.runlockAll()
	db.mu.RUnlock()
	if sinceLSN < poisoned || db.log == nil {
		return nil, false
	}
	return db.changesFromSegments(rel, arity, sinceLSN, visible)
}

// memChangesLocked merges the in-memory shard changelogs for (sinceLSN,
// visible]; shard read locks held by the caller. Each ring is LSN-ordered,
// so the window is found by binary search and costs O(log n + delta).
func (t *table) memChangesLocked(sinceLSN, visible uint64) []relation.Tuple {
	if len(t.shards) == 1 {
		r := &t.shards[0].changes
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
	var merged []change
	for _, s := range t.shards {
		r := &s.changes
		for i, hi := r.after(sinceLSN), r.after(visible); i < hi; i++ {
			merged = append(merged, *r.at(i))
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].lsn != merged[j].lsn {
			return merged[i].lsn < merged[j].lsn
		}
		return merged[i].seq < merged[j].seq
	})
	inserts := make([]relation.Tuple, len(merged))
	for i, c := range merged {
		inserts[i] = c.tuple
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
