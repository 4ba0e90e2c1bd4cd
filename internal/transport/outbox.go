package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"codb/internal/msg"
)

// Outbox is the asynchronous per-destination outbound pipeline: it wraps any
// Transport and turns Send from a synchronous per-message write into an
// enqueue onto a bounded per-destination queue drained by one writer
// goroutine per pipe. A slow pipe delays only its own queue and not the
// other pipes, and Send returns at once while its destination's queue has
// room. A stalled pipe's queue fills, though: once it holds QueueLimit
// payloads (4,096 by default), Send blocks until the writer drains one or
// the pipe fails, and so does the caller — for a peer, its actor loop.
//
// # Coalescing and flush policy
//
// Each writer drains whatever its queue holds the moment it becomes free
// ("group commit"): while a frame is being written, newly enqueued payloads
// accumulate and are packed into a single msg.Batch envelope on the next
// iteration. The policy is therefore:
//
//   - flush on idle: a payload enqueued while the writer is idle is sent
//     immediately — there is no linger timer, so batching adds no
//     artificial latency;
//   - flush on size: a batch is cut at BatchPayloads payloads or BatchBytes
//     payload volume, whichever is reached first;
//   - flush on session-critical messages: because nothing lingers,
//     SessionAck / SessionDone control traffic — which drives
//     Dijkstra–Scholten termination — goes out in the first frame the
//     writer can cut, at worst coalesced with the data it follows, never
//     held for more coalescing.
//
// Receiving transports unpack a Batch and deliver its payloads as
// individual envelopes in order, so batching is invisible above the
// transport and per-destination FIFO order is preserved end to end.
//
// # Backpressure and failure
//
// A queue holds at most QueueLimit payloads; Send blocks while the queue is
// full (backpressure), and fails fast once the pipe is gone. Because
// delivery is asynchronous, a write failure is observed after Send has
// returned: every accepted-but-undelivered payload is reported through
// OnDrop, exactly once, so the owner can compensate the termination
// detector (core.CompensateLost). Disconnect likewise reports every payload
// still queued for the dropped pipe. Close instead flushes: writers drain
// their queues before the underlying transport is torn down.
type Outbox struct {
	tr     Transport
	opts   OutboxOptions
	onDrop func(to string, p msg.Payload, err error)

	mu     sync.Mutex
	queues map[string]*outQueue
	closed bool
	wg     sync.WaitGroup
	downFn func(peer string)

	frames   atomic.Uint64
	payloads atomic.Uint64
	batches  atomic.Uint64
}

// OutboxOptions tunes the pipeline; the zero value selects the defaults.
type OutboxOptions struct {
	// QueueLimit bounds the payloads queued per destination; Send blocks
	// while the queue is full (backpressure). 0 selects 4096.
	QueueLimit int
	// BatchPayloads caps the payloads coalesced into one Batch. 0 = 128.
	BatchPayloads int
	// BatchBytes caps the payload volume of one Batch. 0 = 256 KiB.
	BatchBytes int
	// CloseTimeout bounds Close's graceful drain; past it, stalled pipes
	// are torn down and their queued payloads reported through OnDrop.
	// 0 selects 5s.
	CloseTimeout time.Duration
	// OnDrop is invoked — from a writer goroutine, once per payload — for
	// every payload accepted by Send but not delivered (pipe failure or
	// Disconnect with queued frames). It must not call back into the
	// Outbox synchronously.
	OnDrop func(to string, p msg.Payload, err error)
}

// OutboxStats counts the pipeline's wire activity.
type OutboxStats struct {
	// Frames is the number of envelopes handed to the underlying
	// transport (each one frame on the TCP wire).
	Frames uint64
	// Payloads is the number of payloads shipped inside those frames.
	Payloads uint64
	// Batches counts the frames that coalesced two or more payloads.
	Batches uint64
}

const (
	defaultQueueLimit    = 4096
	defaultBatchPayloads = 128
	defaultBatchBytes    = 256 << 10
	defaultCloseTimeout  = 5 * time.Second
)

// NewOutbox wraps a transport in an outbound pipeline. The Outbox owns the
// transport from here on: callers use the Outbox as their Transport and
// must not send through the wrapped transport directly.
func NewOutbox(tr Transport, opts OutboxOptions) *Outbox {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = defaultQueueLimit
	}
	if opts.BatchPayloads <= 0 {
		opts.BatchPayloads = defaultBatchPayloads
	}
	if opts.BatchBytes <= 0 {
		opts.BatchBytes = defaultBatchBytes
	}
	if opts.CloseTimeout <= 0 {
		opts.CloseTimeout = defaultCloseTimeout
	}
	o := &Outbox{tr: tr, opts: opts, onDrop: opts.OnDrop, queues: make(map[string]*outQueue)}
	if pn, ok := tr.(PipeNotifier); ok {
		pn.SetPipeDownHandler(o.handlePipeDown)
	}
	return o
}

// SetPipeDownHandler implements PipeNotifier: the handler fires after the
// Outbox has dropped the dead pipe's queue (reporting queued payloads
// through OnDrop), so by the time the owner observes the failure the
// pipe's per-destination state is already settled.
func (o *Outbox) SetPipeDownHandler(fn func(peer string)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.downFn = fn
}

// handlePipeDown intercepts the underlying transport's pipe-failure
// notification: the destination's queue is failed (its queued payloads are
// reported through OnDrop) and the notification is forwarded.
func (o *Outbox) handlePipeDown(peer string) {
	o.mu.Lock()
	q := o.queues[peer]
	delete(o.queues, peer)
	fn := o.downFn
	o.mu.Unlock()
	if q != nil {
		dropped := q.close(false)
		o.reportDrops(peer, dropped, fmt.Errorf("transport: pipe to %s failed", peer))
	}
	if fn != nil {
		fn(peer)
	}
}

// Self implements Transport.
func (o *Outbox) Self() string { return o.tr.Self() }

// Underlying returns the wrapped transport (for capability probing, e.g.
// the TCP dial-back address; senders must keep going through the Outbox).
func (o *Outbox) Underlying() Transport { return o.tr }

// SetHandler implements Transport (inbound traffic is untouched).
func (o *Outbox) SetHandler(h Handler) { o.tr.SetHandler(h) }

// Peers implements Transport.
func (o *Outbox) Peers() []string { return o.tr.Peers() }

// Stats returns the pipeline's cumulative wire counters.
func (o *Outbox) Stats() OutboxStats {
	return OutboxStats{Frames: o.frames.Load(), Payloads: o.payloads.Load(), Batches: o.batches.Load()}
}

// Connect implements Transport: it establishes the underlying pipe and its
// writer goroutine.
func (o *Outbox) Connect(node, addr string) error {
	if err := o.tr.Connect(node, addr); err != nil {
		return err
	}
	if o.queueFor(node) == nil {
		return ErrClosed
	}
	return nil
}

// ConnectAddr implements AddrDialer when the underlying transport does: the
// pipe is established by address, the learned name gets its writer queue.
func (o *Outbox) ConnectAddr(addr string) (string, error) {
	ad, ok := o.tr.(AddrDialer)
	if !ok {
		return "", fmt.Errorf("transport: %T cannot dial by address", o.tr)
	}
	node, err := ad.ConnectAddr(addr)
	if err != nil {
		return "", err
	}
	if o.queueFor(node) == nil {
		return "", ErrClosed
	}
	return node, nil
}

// Send implements Transport: the payload is enqueued for the destination's
// writer. Send blocks while the queue is full and returns an error only
// when no pipe to the destination exists (or the Outbox is closed); later
// delivery failures are reported through OnDrop.
func (o *Outbox) Send(to string, p msg.Payload) error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	q := o.queues[to]
	o.mu.Unlock()
	if q == nil {
		// No queue yet: the pipe may have been established from the far
		// side (accept-side TCP connections have no Connect call here).
		if !o.hasPipe(to) {
			return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
		}
		if q = o.queueFor(to); q == nil {
			return ErrClosed
		}
	}
	if !q.put(p, o.opts.QueueLimit) {
		return fmt.Errorf("%w: %s (pipe lost)", ErrUnknownPeer, to)
	}
	return nil
}

// Disconnect implements Transport: the pipe is dropped and every payload
// still queued for it is reported through OnDrop.
func (o *Outbox) Disconnect(node string) {
	o.mu.Lock()
	q := o.queues[node]
	delete(o.queues, node)
	o.mu.Unlock()
	if q != nil {
		dropped := q.close(false)
		o.reportDrops(node, dropped, fmt.Errorf("transport: disconnected from %s", node))
	}
	o.tr.Disconnect(node)
}

// Close implements Transport: queued frames are flushed (writers drain
// their queues), then the underlying transport is closed. The drain is
// bounded by CloseTimeout: a remote that stopped reading its socket would
// otherwise pin a writer in a kernel write forever and hang Close, so on
// timeout the underlying transport is torn down first, erroring the
// stalled writes out and reporting the undrained payloads through OnDrop.
func (o *Outbox) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	qs := make([]*outQueue, 0, len(o.queues))
	for _, q := range o.queues {
		qs = append(qs, q)
	}
	o.queues = make(map[string]*outQueue)
	o.mu.Unlock()
	for _, q := range qs {
		q.close(true)
	}
	drained := make(chan struct{})
	go func() {
		o.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(o.opts.CloseTimeout):
		// Abandon the drain: closing the transport unblocks stalled
		// writers with errors; their fail path reports the leftovers.
		o.tr.Close()
		for _, q := range qs {
			if rest := q.close(false); len(rest) > 0 {
				o.reportDrops(q.to, rest, errors.New("transport: close timeout, pipe stalled"))
			}
		}
		<-drained
	}
	return o.tr.Close()
}

// Flush blocks until every queue accepted so far has been written out (or
// its pipe has failed). Tests and graceful shutdowns use it to observe the
// pipeline in a quiescent state.
func (o *Outbox) Flush() {
	o.mu.Lock()
	qs := make([]*outQueue, 0, len(o.queues))
	for _, q := range o.queues {
		qs = append(qs, q)
	}
	o.mu.Unlock()
	for _, q := range qs {
		q.waitIdle()
	}
}

// hasPipe reports whether the underlying transport has a pipe to the node.
func (o *Outbox) hasPipe(to string) bool {
	for _, p := range o.tr.Peers() {
		if p == to {
			return true
		}
	}
	return false
}

// queueFor returns (creating if needed) the destination's queue, spawning
// its writer; nil when the Outbox is closed.
func (o *Outbox) queueFor(node string) *outQueue {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil
	}
	q := o.queues[node]
	if q == nil {
		q = newOutQueue(node)
		o.queues[node] = q
		o.wg.Add(1)
		go o.run(q)
	}
	return q
}

// run is one destination's writer: it drains the queue batch by batch until
// the queue closes, failing the whole queue on the first write error.
func (o *Outbox) run(q *outQueue) {
	defer o.wg.Done()
	for {
		batch, ok := q.takeBatch(o.opts.BatchPayloads, o.opts.BatchBytes)
		if !ok {
			return
		}
		var p msg.Payload
		if len(batch) == 1 {
			p = batch[0]
		} else {
			p = &msg.Batch{Payloads: batch}
			o.batches.Add(1)
		}
		err := o.tr.Send(q.to, p)
		q.doneBatch()
		if err != nil {
			o.fail(q, batch, err)
			return
		}
		o.frames.Add(1)
		o.payloads.Add(uint64(len(batch)))
	}
}

// fail tears one queue down after a write error: the failed batch and every
// payload still queued are reported through OnDrop.
func (o *Outbox) fail(q *outQueue, batch []msg.Payload, err error) {
	o.mu.Lock()
	if o.queues[q.to] == q {
		delete(o.queues, q.to)
	}
	o.mu.Unlock()
	rest := q.close(false)
	o.reportDrops(q.to, append(batch, rest...), err)
}

func (o *Outbox) reportDrops(to string, payloads []msg.Payload, err error) {
	if o.onDrop == nil {
		return
	}
	for _, p := range payloads {
		o.onDrop(to, p, err)
	}
}

// outQueue is one destination's bounded FIFO of pending payloads.
type outQueue struct {
	to string

	mu     sync.Mutex
	cond   *sync.Cond
	items  []msg.Payload
	busy   bool // a batch is popped but not yet written
	closed bool
	drain  bool // closed gracefully: writer drains remaining items
}

func newOutQueue(to string) *outQueue {
	q := &outQueue{to: to}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues, blocking while the queue is full; false when the queue has
// closed (the pipe is gone).
func (q *outQueue) put(p msg.Payload, limit int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && len(q.items) >= limit {
		q.cond.Wait()
	}
	if q.closed {
		return false
	}
	q.items = append(q.items, p)
	q.cond.Broadcast()
	return true
}

// takeBatch blocks until payloads are pending (or the queue closes) and
// pops the next batch, bounded by maxN payloads / maxBytes volume. False
// means the writer should exit.
func (q *outQueue) takeBatch(maxN, maxBytes int) ([]msg.Payload, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 || (q.closed && !q.drain) {
		return nil, false
	}
	n, size := 0, 0
	for n < len(q.items) && n < maxN && size < maxBytes {
		size += q.items[n].Size()
		n++
	}
	batch := make([]msg.Payload, n)
	copy(batch, q.items[:n])
	rest := copy(q.items, q.items[n:])
	clear(q.items[rest:])
	q.items = q.items[:rest]
	q.busy = true
	q.cond.Broadcast()
	return batch, true
}

// doneBatch marks the popped batch written (or failed).
func (q *outQueue) doneBatch() {
	q.mu.Lock()
	q.busy = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// close shuts the queue; with drain the writer flushes the remaining items
// first, otherwise they are returned for OnDrop reporting. Force-closing a
// queue that was closed for draining (a write failure or close timeout
// mid-drain) hands back the undrained remainder, so every accepted payload
// is either written or reported — never silently discarded.
func (q *outQueue) close(drain bool) []msg.Payload {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		if drain || !q.drain {
			return nil // already force-closed, or nothing to downgrade
		}
		q.drain = false
		rest := q.items
		q.items = nil
		q.cond.Broadcast()
		return rest
	}
	q.closed = true
	q.drain = drain
	var rest []msg.Payload
	if !drain {
		rest = q.items
		q.items = nil
	}
	q.cond.Broadcast()
	return rest
}

// waitIdle blocks until the queue is empty with no batch in flight.
func (q *outQueue) waitIdle() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for (len(q.items) > 0 || q.busy) && !(q.closed && !q.drain) {
		q.cond.Wait()
	}
}
