package wal

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// GroupCommitter turns per-commit log writes into a group-commit pipeline:
// a single writer goroutine drains concurrently enqueued commit records,
// appends the whole batch with one write call, and issues one fsync per
// batch instead of one per commit. Under W concurrent committers with
// sync-on-commit enabled this divides the fsync count by up to W — the
// classic group-commit design — while preserving exactly the record order
// in which Commit was called.
//
// Enqueue order is the caller's responsibility. The storage engine has one
// writer and appends inline, so its one caller is bench/probe.go, which
// times a sync-on-commit append through it.
type GroupCommitter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	log    Sink
	queue  []groupReq
	closed bool
	err    error // sticky writer-side failure, reported to later commits
	stats  GroupStats

	// fsyncEWMA tracks observed fsync latency (exponentially weighted,
	// 1/8 gain), the input of the adaptive batch-formation window.
	fsyncEWMA time.Duration

	done chan struct{} // writer goroutine exited
}

// Sink is the log the group committer writes through: the Segmented WAL,
// whose rotation happens inside AppendBatch, so the committer needs no
// retargeting when the active segment changes.
type Sink interface {
	AppendBatch(payloads [][]byte) error
	Sync() error
}

// groupReq is one enqueued commit record. done is buffered so the writer
// never blocks delivering results.
type groupReq struct {
	payload []byte
	sync    bool
	done    chan error
}

// GroupStats counts the pipeline's batching behaviour.
type GroupStats struct {
	// Commits is the number of records committed through the pipeline.
	Commits uint64
	// Batches is the number of writer wake-ups that wrote at least one
	// record; Commits/Batches is the mean group size.
	Batches uint64
	// Syncs is the number of fsyncs issued (at most one per batch).
	Syncs uint64
	// MaxBatch is the largest group committed at once.
	MaxBatch int
	// Window is the batch-formation wait currently chosen by the adaptive
	// policy — min(1ms, observed fsync latency / 4) — applied before
	// draining a queue that contains at least one sync-requesting commit.
	// Zero until the first fsync has been observed.
	Window time.Duration
}

// maxBatchWindow bounds the adaptive batch-formation wait: even on storage
// with multi-millisecond fsyncs the pipeline never adds more than 1ms of
// commit latency to form a batch.
const maxBatchWindow = time.Millisecond

// NewGroupCommitter starts the pipeline over an open log.
func NewGroupCommitter(l Sink) *GroupCommitter {
	g := &GroupCommitter{log: l, done: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	return g
}

// Commit enqueues one record and returns a channel that delivers the
// append (and, when sync is true, fsync) outcome once the writer has
// processed the batch containing it. The caller may release its locks
// before receiving; order is fixed at enqueue time.
func (g *GroupCommitter) Commit(payload []byte, sync bool) <-chan error {
	done := make(chan error, 1)
	g.mu.Lock()
	if g.closed {
		err := g.err
		g.mu.Unlock()
		if err == nil {
			err = errGroupClosed
		}
		done <- err
		return done
	}
	if g.err != nil {
		// A batch write already failed: the log may end in a torn record,
		// so appending more records would place acked data after bytes
		// that stop recovery replay. The pipeline stays poisoned.
		err := g.err
		g.mu.Unlock()
		done <- err
		return done
	}
	g.queue = append(g.queue, groupReq{payload: payload, sync: sync, done: done})
	g.cond.Signal()
	g.mu.Unlock()
	return done
}

var errGroupClosed = fmt.Errorf("wal: group committer closed")

// Flush blocks until every record enqueued before the call is appended
// (and synced, where requested). Used as a barrier before checkpoints.
// After Close the queue is empty by construction, so Flush reports the
// pipeline's sticky error (nil when every batch succeeded).
func (g *GroupCommitter) Flush() error {
	g.mu.Lock()
	if g.closed {
		err := g.err
		g.mu.Unlock()
		return err
	}
	done := make(chan error, 1)
	g.queue = append(g.queue, groupReq{done: done})
	g.cond.Signal()
	g.mu.Unlock()
	return <-done
}

// run is the writer goroutine: drain the queue, one write, one fsync.
func (g *GroupCommitter) run() {
	defer close(g.done)
	for {
		g.mu.Lock()
		for len(g.queue) == 0 && !g.closed {
			g.cond.Wait()
		}
		if len(g.queue) == 0 && g.closed {
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		// Batch-formation window: the signalling committer wakes this
		// goroutine with scheduler priority, so draining immediately would
		// commit groups of one. One yield lets every runnable committer
		// enqueue first — microseconds of added latency against an fsync
		// saved per joiner — which is what makes sync-on-commit batches
		// form even on a single CPU.
		runtime.Gosched()
		// Adaptive extension: when the queue already holds a
		// sync-requesting commit, the batch is about to pay a full fsync —
		// so waiting a bounded fraction of one (min(1ms, observed fsync
		// latency / 4)) to let more committers join is nearly free and
		// divides the fsync count. Non-sync batches (async commits, Flush
		// barriers) never wait: they have no fsync to amortise. A timer
		// sleep is only trusted at the 1ms cap (sub-millisecond sleeps
		// overshoot by the timer granularity, which would dwarf a fast
		// fsync); below it the wait is a yield loop that stops as soon as
		// a yield attracts no new committer.
		g.mu.Lock()
		window := g.stats.Window
		wantSync := false
		for _, r := range g.queue {
			if r.sync {
				wantSync = true
				break
			}
		}
		g.mu.Unlock()
		if wantSync && window > 0 {
			if window >= maxBatchWindow {
				time.Sleep(window)
			} else {
				deadline := time.Now().Add(window)
				for {
					g.mu.Lock()
					before := len(g.queue)
					g.mu.Unlock()
					runtime.Gosched()
					g.mu.Lock()
					grew := len(g.queue) > before
					g.mu.Unlock()
					if !grew || !time.Now().Before(deadline) {
						break
					}
				}
			}
		}
		g.mu.Lock()
		batch := g.queue
		g.queue = nil
		g.mu.Unlock()

		payloads := make([][]byte, 0, len(batch))
		records := 0
		needSync := false
		for _, r := range batch {
			if r.payload != nil {
				payloads = append(payloads, r.payload)
				records++
			}
			needSync = needSync || r.sync
		}
		g.mu.Lock()
		err := g.err
		g.mu.Unlock()
		var fsyncTook time.Duration
		if err == nil {
			// Never write past a failed batch: a partial append leaves a
			// torn record, and anything appended after it is unreachable
			// to recovery (replay stops at the first bad CRC).
			err = g.log.AppendBatch(payloads)
			if err == nil && needSync {
				t0 := time.Now()
				err = g.log.Sync()
				fsyncTook = time.Since(t0)
			}
		}
		g.mu.Lock()
		if records > 0 && err == nil {
			g.stats.Commits += uint64(records)
			g.stats.Batches++
			if records > g.stats.MaxBatch {
				g.stats.MaxBatch = records
			}
		}
		if needSync && err == nil {
			g.stats.Syncs++
			if g.fsyncEWMA == 0 {
				g.fsyncEWMA = fsyncTook
			} else {
				g.fsyncEWMA = (g.fsyncEWMA*7 + fsyncTook) / 8
			}
			if w := g.fsyncEWMA / 4; w < maxBatchWindow {
				g.stats.Window = w
			} else {
				g.stats.Window = maxBatchWindow
			}
		}
		if err != nil && g.err == nil {
			g.err = err
		}
		g.mu.Unlock()
		for _, r := range batch {
			r.done <- err
		}
	}
}

// Stats returns the pipeline counters.
func (g *GroupCommitter) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Close flushes pending records and stops the writer goroutine. Commit
// calls after Close fail immediately.
func (g *GroupCommitter) Close() error {
	err := g.Flush()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return err
	}
	g.closed = true
	g.cond.Signal()
	g.mu.Unlock()
	<-g.done
	return err
}
