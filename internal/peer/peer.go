// Package peer is the runtime of one coDB node: it wires the algorithm
// state machine (internal/core) to a transport, the local database, the
// statistics module and the user-facing API — the Database Manager, JXTA
// Layer and Wrapper boxes of the paper's Figure 1, running as a single
// actor goroutine.
//
// The actor takes every input from one unbounded FIFO (eventQueue) that
// producers put into without blocking: envelopes from the transport's
// handler (a TCP pipe's read loop, or the sender's Bus.Send), commands from
// the public methods, lost sends, pipe-downs and deadline pulls. All node
// state is owned by the loop, so the Peer is safe for concurrent use
// without shared-state locking. The loop never waits on a reader: a
// query's answers go into the query's own buffer.
//
// Outbound traffic goes through transport.Outbox by default: sends are
// asynchronous per-destination enqueues, so a slow pipe does not stall the
// actor until its queue is full — at 4,096 queued payloads Outbox.Send,
// and with it the actor, blocks until that pipe drains or fails. Queued
// payloads coalesce into batch frames, and envelope bursts defer
// acknowledgements (core.DeferAcks) so n messages from one sender cost one
// counted ack. Delivery failures observed after the fact — a
// write error in a writer goroutine, or a pipe-down notification for
// frames already written into a dead connection — are routed back into
// the actor loop and compensated in the termination detector
// (core.CompensateLost / core.CompensatePeerLoss).
package peer

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// ErrStopped is the sentinel wrapped by every method of a stopped peer
// (errors.Is), surfaced on the public codb API as ErrPeerClosed.
var ErrStopped = errors.New("peer stopped")

// Options configures a peer.
type Options struct {
	// Name is the node's network-unique name (required).
	Name string
	// Transport connects the peer to the network (required).
	Transport transport.Transport
	// Wrapper is the local storage; required (core.NewStoreWrapper, or
	// core.NewMediatorWrapper for a node without an LDB).
	Wrapper core.Wrapper
	// Directory seeds the node -> dial-address map used to establish
	// pipes (TCP); in-process buses resolve names themselves. Seed entries
	// carry the static bootstrap epoch 0; runtime membership facts
	// (msg.DirEntry) override them.
	Directory map[string]string
	// Epoch is this node's own directory epoch — the incarnation number
	// other peers know this node under. Every runtime join bumps it;
	// static bootstrap deployments leave it 0.
	Epoch uint64
	// Eval, FullExport tune the algorithm; see core.Config.
	Eval       cq.EvalOptions
	FullExport bool
	// LinkPolicies maps rule IDs to propagation policy modes ("push",
	// "pull", "adaptive", "filter"); LinkFilters maps rule IDs to filter
	// predicates (comma-separated comparisons over the rule's frontier
	// variables). The node keeps them by rule ID and applies each when its
	// rule is declared; see core.Node.SetLinkPolicy.
	LinkPolicies map[string]string
	LinkFilters  map[string]string
	// MaxStaleness bounds how long a pull link may stay hinted-stale
	// before the peer pulls on its own (0 = pull only on local reads or
	// explicit PullLink/CatchUp).
	MaxStaleness time.Duration
	// PullTimeout bounds how long a local query blocks on a triggered
	// pull before answering from the stale extent (0 selects
	// DefaultPullTimeout).
	PullTimeout time.Duration
	// SuspicionTimeout enables the heartbeat failure detector: a piped peer
	// silent for this long is suspected, and for twice this long declared
	// down — in-flight deficits written off, pipe severed, paced redials
	// armed — but never tombstoned: a partitioned peer is expected back
	// (see lifecycle.go). 0 disables the detector. Meaningful over TCP,
	// which emits heartbeats; other transports exempt every peer from
	// silence judgment.
	SuspicionTimeout time.Duration
	// SuspicionInterval is the heartbeat emission and suspicion-scan period
	// (0 selects SuspicionTimeout / 4).
	SuspicionInterval time.Duration
	// Logger receives diagnostics; nil discards them.
	Logger *slog.Logger
}

// Peer is a running coDB node.
type Peer struct {
	name     string
	node     *core.Node
	tr       *transport.Outbox // the asynchronous outbound pipeline over Options.Transport
	tcp      *transport.TCP    // the concrete transport when it is TCP (nil otherwise)
	readPath *readPath         // concurrent reads off the actor loop
	log      *slog.Logger

	// Propagation-policy runtime (see propagation.go). prop carries its own
	// mutex: the read path consults it off the actor loop.
	prop         *propState
	maxStaleness time.Duration
	pullTimeout  time.Duration

	// Peer lifecycle (see lifecycle.go): timeout is the suspicion timeout
	// (0 = detector off); suspects, downs and heals count transitions.
	timeout                time.Duration
	suspects, downs, heals uint64

	events *eventQueue // every input of the actor loop, in arrival order

	// Actor-owned state (no locks; only the loop touches these).
	members      map[string]*member // directory, pipes and liveness, per remote peer
	selfEpoch    uint64             // this node's own incarnation number
	rulesVersion int
	rulesText    string             // concrete syntax of the installed config (join handoff)
	statsSeen    map[string]bool    // stats-request flood dedup
	waiting      map[string]*waiter // by SID: who waits on a session's end
	statsSink    func(msg.StatsReport)
	joinWait     chan *msg.JoinAccept // armed by JoinVia, fired by handleJoinAccept

	stopped  chan struct{} // closed by Stop
	loopDone chan struct{} // closed when the actor loop has exited
}

// waiter is whoever waits on one session's end at this peer: the reader of
// a query, the caller of an update, the super-peer of a remote
// StartUpdateCmd, or the callers of a pull. The actor fills it in and never
// blocks on the one waiting. A caller that gives up drops it (dropWaiter);
// the session runs on without it.
type waiter struct {
	mu      sync.Mutex
	answers []relation.Tuple // a query's answers not yet taken
	more    chan struct{}    // a query's: signalled (capacity 1) after each append
	done    chan struct{}    // closed by the loop when the session finishes here
	rep     msg.UpdateReport // the session report, valid once done is closed
	replyTo string           // a remote StartUpdateCmd's: where the report goes
	rules   []string         // a pull's: the outgoing links it covers
}

func newWaiter() *waiter { return &waiter{done: make(chan struct{})} }

// add appends answers (loop only).
func (w *waiter) add(answers []relation.Tuple) {
	w.mu.Lock()
	w.answers = append(w.answers, answers...)
	w.mu.Unlock()
	select {
	case w.more <- struct{}{}:
	default:
	}
}

// take returns the answers appended since the last take.
func (w *waiter) take() []relation.Tuple {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.answers
	w.answers = nil
	return out
}

// reportBacklog is the queue length past which a best-effort local-query
// report is dropped rather than queued (noteLocalQueryReport).
const reportBacklog = 1024

// New starts a peer. The returned Peer is live: its transport handler is
// installed and the actor loop is running.
func New(opts Options) (*Peer, error) {
	if opts.Name == "" || opts.Transport == nil || opts.Wrapper == nil {
		return nil, fmt.Errorf("peer: Name, Transport and Wrapper are required")
	}
	node, err := core.NewNode(core.Config{
		Self:       opts.Name,
		Wrapper:    opts.Wrapper,
		Eval:       opts.Eval,
		FullExport: opts.FullExport,
		Clock:      func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return nil, err
	}
	for _, byID := range []map[string]string{opts.LinkPolicies, opts.LinkFilters} {
		for id := range byID { // a missing mode is push
			if err := node.SetLinkPolicy(id, opts.LinkPolicies[id], opts.LinkFilters[id]); err != nil {
				return nil, err
			}
		}
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &Peer{
		name:      opts.Name,
		node:      node,
		log:       log.With("peer", opts.Name),
		events:    newEventQueue(),
		members:   make(map[string]*member),
		selfEpoch: opts.Epoch,
		timeout:   opts.SuspicionTimeout,
		statsSeen: make(map[string]bool),
		waiting:   make(map[string]*waiter),
		stopped:   make(chan struct{}),
		loopDone:  make(chan struct{}),

		prop:         newPropState(),
		maxStaleness: opts.MaxStaleness,
		pullTimeout:  opts.PullTimeout,
	}
	if p.pullTimeout <= 0 {
		p.pullTimeout = DefaultPullTimeout
	}
	for k, v := range opts.Directory {
		p.members[k] = &member{listed: true, addr: v}
	}
	p.readPath = newReadPath(opts.Name, opts.Wrapper, node, opts.Eval)
	p.readPath.record = p.noteLocalQueryReport
	p.readPath.beforeRead = p.maybePullForRead
	p.refreshReadRules() // loop not yet running: safe here
	// The peer owns the outbox's OnDrop hook: undeliverable messages are
	// compensated in the termination detector.
	p.tr = transport.NewOutbox(opts.Transport, transport.OutboxOptions{OnDrop: p.noteLostSend})
	p.tcp, _ = rawTransport(p.tr).(*transport.TCP)
	p.tr.SetHandler(func(env msg.Envelope) { p.events.put(env) })
	p.tr.SetPipeDownHandler(p.notePipeDown)
	if p.timeout > 0 {
		interval := opts.SuspicionInterval
		if interval <= 0 {
			interval = opts.SuspicionTimeout / 4
		}
		if interval <= 0 {
			interval = time.Millisecond
		}
		if p.tcp != nil {
			// Emitted below any fault-injection wrapper: a Partitioner
			// silences a pipe by blocking the receiving side. Other
			// transports have no heartbeats; their members are exempt.
			p.tcp.StartHeartbeats(interval)
		}
		go p.suspicionLoop(interval)
	}
	go p.loop()
	return p, nil
}

// rawTransport unwraps the outbox pipeline and any fault-injection wrapper
// down to the concrete transport.
func rawTransport(tr transport.Transport) transport.Transport {
	for {
		switch x := tr.(type) {
		case *transport.Outbox:
			tr = x.Underlying()
		case *transport.Partitioner:
			tr = x.Underlying()
		default:
			return tr
		}
	}
}

// pipeDown reports an involuntarily failed pipe; the actor loop writes off
// the peer's outstanding termination-detector deficit.
type pipeDown struct{ peer string }

// notePipeDown queues a pipeDown for the actor loop. TCP reports a failed
// read from the pipe's read loop, so it follows the pipe's last envelope.
func (p *Peer) notePipeDown(peer string) { p.events.put(pipeDown{peer: peer}) }

// lostSend reports an asynchronous delivery failure from the outbox; the
// actor loop compensates the termination detector for it.
type lostSend struct {
	to      string
	payload msg.Payload
	err     error
}

// noteLostSend queues a lostSend for the actor loop; it is called from an
// outbox writer goroutine, or from the outbox inside the loop's own
// Disconnect.
func (p *Peer) noteLostSend(to string, payload msg.Payload, err error) {
	p.events.put(lostSend{to: to, payload: payload, err: err})
}

// noteLocalQueryReport records a bypassed query's synthetic report in the
// node's statistics module, so session-free local queries still appear in
// Reports() and super-peer aggregation. The post is strictly best-effort:
// when the queue is backlogged (a heavy update session in flight — exactly
// when readers must not re-couple to the loop), the report is dropped.
func (p *Peer) noteLocalQueryReport(rep msg.UpdateReport) {
	p.events.offer(func() { p.node.NoteReport(rep) }, reportBacklog)
}

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// do runs fn inside the actor loop and waits for it.
func (p *Peer) do(fn func()) error {
	done := make(chan struct{})
	if p.events.put(func() { fn(); close(done) }) {
		select {
		case <-done:
			return nil
		case <-p.stopped:
		}
	}
	return fmt.Errorf("peer %s: %w", p.name, ErrStopped)
}

// eventQueue is the actor loop's input: an unbounded FIFO of envelopes,
// commands (func()), lost sends and pipe-downs. Producers never block; the
// loop is its only consumer.
type eventQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []any
	closed bool
}

func newEventQueue() *eventQueue {
	q := &eventQueue{}
	q.cond.L = &q.mu
	return q
}

// put appends item, reporting false once the queue is closed.
func (q *eventQueue) put(item any) bool { return q.offer(item, math.MaxInt) }

// offer is put, except that it drops item while limit items are queued.
func (q *eventQueue) offer(item any, limit int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= limit {
		return false
	}
	q.items = append(q.items, item)
	q.cond.Signal()
	return true
}

// take returns every queued item, handing spare (emptied) to the queue as
// its next buffer. With wait it blocks while the queue is empty and open;
// without, it may return none. It returns nil once the queue is closed.
func (q *eventQueue) take(spare []any, wait bool) []any {
	clear(spare)
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	items := q.items
	q.items = spare[:0]
	return items
}

// close makes every later put fail and wakes the loop to exit.
func (q *eventQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (p *Peer) loop() {
	defer close(p.loopDone)
	var batch []any
	for {
		if batch = p.events.take(batch, true); batch == nil {
			return
		}
		for i := 0; i < len(batch); {
			switch v := batch[i].(type) {
			case msg.Envelope:
				batch, i = p.handleEnvelopeBurst(batch, i)
				continue
			case lostSend:
				p.handleLostSend(v)
			case pipeDown:
				p.handlePipeDown(v)
			case func():
				v()
			}
			i++
		}
	}
}

// handlePipeDown writes off every in-flight message toward a failed pipe.
// An asynchronous write can succeed into a connection the far side has
// already abandoned — no send error is ever observed for such a message —
// so when the transport reports the pipe down, the outstanding
// per-destination deficit counts messages whose acknowledgements may never
// arrive. The report can be stale: the peer may have redialled, or this
// node re-opened the pipe, between the failure and this event. The
// lifecycle ignores it while the transport lists a live pipe.
func (p *Peer) handlePipeDown(d pipeDown) {
	p.apply(d.peer, event{kind: evPipeDown, pipeLive: slices.Contains(p.tr.Peers(), d.peer)})
}

// maxBurst bounds how many envelopes one burst handles, so a firehose of
// inbound traffic cannot starve commands indefinitely.
const maxBurst = 256

// handleEnvelopeBurst processes the envelope at batch[i] plus the envelopes
// after it — polling the queue again when batch runs out — as a single
// activity period: per-message acknowledgements are deferred across the
// burst (core.DeferAcks) and flushed once at the end, coalescing a burst of
// n messages from one sender into one counted ack, and on a durable peer
// committing the burst once. Messages themselves are still handled — and
// their outbound results shipped — strictly in arrival order. The burst
// ends at maxBurst envelopes, at the first item that is not an envelope, or
// when the queue is empty; it returns the batch and index to resume at.
func (p *Peer) handleEnvelopeBurst(batch []any, i int) ([]any, int) {
	p.node.DeferAcks(true)
	for n := 0; n < maxBurst; n++ {
		if i == len(batch) {
			if batch, i = p.events.take(batch, false), 0; len(batch) == 0 {
				break
			}
		}
		env, ok := batch[i].(msg.Envelope)
		if !ok {
			break
		}
		p.handleEnvelope(env)
		i++
	}
	p.dispatch(p.node.FlushDeferred())
	return batch, i
}

// handleLostSend writes off a message the outbox accepted but could not
// deliver (pipe failure or disconnect with queued frames) — the
// asynchronous counterpart of sendTo's error path.
func (p *Peer) handleLostSend(l lostSend) {
	p.log.Warn("async send failed", "to", l.to, "err", l.err)
	p.apply(l.to, event{kind: evSendFailed, sid: sessionIDOf(l.payload)})
}

// Stop shuts the peer down and returns once the actor loop has exited, so
// the caller may close (or reopen) the peer's store straight away. Safe to
// call twice, not from inside the loop.
func (p *Peer) Stop() {
	select {
	case <-p.stopped:
		<-p.loopDone
		return
	default:
	}
	close(p.stopped)
	p.events.close()
	p.tr.Close()
	<-p.loopDone
}

// handleEnvelope processes one inbound message inside the actor loop.
func (p *Peer) handleEnvelope(env msg.Envelope) {
	// Any traffic at all is liveness: reset the sender's suspicion timer,
	// and if it was declared down, its return is a heal.
	if p.timeout > 0 && env.From != p.name {
		p.apply(env.From, event{kind: evHeard})
	}
	switch m := env.Payload.(type) {
	case *msg.RulesBroadcast:
		p.applyBroadcast(env.From, m)
	case *msg.StatsRequest:
		p.handleStatsRequest(env.From, m)
	case *msg.StatsReport:
		if p.statsSink != nil {
			p.statsSink(*m)
		}
	case *msg.StartUpdateCmd:
		p.handleStartUpdateCmd(env.From, m)
	case *msg.UpdateFinished:
		if p.statsSink != nil {
			// Super-peers consume these through the sink as well.
			p.statsSink(msg.StatsReport{ID: m.SID, Node: m.Node, Reports: []msg.UpdateReport{m.Report}})
		}
	case *msg.JoinRequest:
		p.handleJoinRequest(m)
	case *msg.JoinAccept:
		p.handleJoinAccept(m)
	case *msg.Leave:
		// A coordinated leave tombstones the departing node's own
		// incarnation: same-epoch tombstones win over live entries.
		p.applyDirectoryDelta([]msg.DirEntry{{Node: m.Node, Epoch: m.Epoch, Deleted: true}})
	case *msg.DirectoryDelta:
		// Deltas arrive star-flooded by the admitting/removing peer and
		// are applied locally, never forwarded (no gossip loops).
		p.applyDirectoryDelta(m.Entries)
	case *msg.UpdateHint:
		p.handleUpdateHint(env.From, m)
	case *msg.LinkDemand:
		p.node.HandleLinkDemand(m.RuleID, m.Mode == 1)
	case *msg.Heartbeat:
		// Pure liveness: the evHeard above already reset the suspicion
		// timer, and a heartbeat carries nothing else.
	default:
		if d, ok := m.(*msg.SessionData); ok && d.Kind == msg.KindUpdate {
			// Feed the adaptive policy's cold-link detector before the
			// session machinery consumes the delivery. Only pushed data
			// counts: a pull or a query is demand, not a push nobody read.
			p.noteDataDelivery(d.RuleID)
		}
		res := p.node.Handle(env)
		p.dispatch(res)
	}
	// Update requests can adopt rules (core.handleRequest) and broadcasts
	// reconfigure: republish the read path's rule copy when that happened.
	p.refreshReadRules()
}

// dispatch ships a core Result: messages out, answers to the query's
// waiter, and each finished session to its waiter.
func (p *Peer) dispatch(res core.Result) {
	// Before any send: a failed one can finish a session right away.
	p.noteScopedRequests(res.Out)
	// Grouped per destination, so the outbox sees contiguous runs it can
	// coalesce into batch frames.
	for _, out := range res.GroupedOut() {
		p.sendSessionMsg(out)
	}
	for _, err := range res.Errors {
		p.log.Warn("eval error during session", "err", err)
	}
	// Answers must reach their waiter before Finished closes it.
	if len(res.Answers) > 0 {
		if w := p.waiting[res.AnswersSID]; w != nil {
			w.add(res.Answers)
		}
	}
	for _, f := range res.Finished {
		p.log.Debug("session finished", "sid", f.SID, "initiator", f.Initiator)
		if f.Report.Kind == msg.KindScoped {
			p.settlePulls(f)
		}
		w := p.waiting[f.SID]
		if w == nil {
			continue
		}
		delete(p.waiting, f.SID)
		if w.replyTo != "" {
			p.sendTo(w.replyTo, &msg.UpdateFinished{SID: f.SID, Node: p.name, Report: f.Report})
		}
		for _, id := range w.rules {
			if l := p.prop.links[id]; l != nil && l.pulling == w {
				l.pulling = nil
			}
		}
		w.rep = f.Report
		close(w.done)
	}
}

// dropWaiter forgets a session's waiter on the loop, for a caller that
// stopped waiting.
func (p *Peer) dropWaiter(sid string) {
	p.events.put(func() { delete(p.waiting, sid) })
}

// sendSessionMsg sends one session message; sendTo writes it off if the
// peer is unreachable.
func (p *Peer) sendSessionMsg(out core.Outbound) {
	if err := p.sendTo(out.To, out.Payload); err != nil {
		p.log.Warn("send failed", "to", out.To, "err", err)
	}
}

// ensurePipe opens the pipe to a node if absent, sending our directory over
// fresh pipes (the paper's Figure 3 discovery).
func (p *Peer) ensurePipe(to string) error {
	m := p.members[to]
	if m != nil && m.piped {
		return nil
	}
	if m != nil && m.tombstoned {
		// Tombstoned peers are never dialed: a departed node's address
		// must not accumulate failed dial attempts.
		return fmt.Errorf("peer %s: %s has left the network", p.name, to)
	}
	if err := p.tr.Connect(to, p.member(to).addr); err != nil {
		return err
	}
	p.apply(to, event{kind: evPipeOpened})
	p.tr.Send(to, &msg.DirectoryDelta{Entries: p.directoryEntries()})
	return nil
}

// sendTo sends one payload, opening the pipe first. A failure is a lifecycle
// event: the pipe is dropped, and a session message is written off.
func (p *Peer) sendTo(to string, payload msg.Payload) error {
	err := p.ensurePipe(to)
	if err == nil {
		err = p.tr.Send(to, payload)
	}
	if err != nil {
		p.apply(to, event{kind: evSendFailed, sid: sessionIDOf(payload)})
	}
	return err
}

// sessionIDOf returns the session of a payload that counts in the
// termination detector's deficit, or "" for any other payload.
func sessionIDOf(p msg.Payload) string {
	switch m := p.(type) {
	case *msg.SessionRequest:
		return m.SID
	case *msg.SessionData:
		return m.SID
	default:
		return ""
	}
}

// applyBroadcast installs a coordination-rules configuration (dropping old
// rules and pipes no longer backing any rule) and forwards the flood.
func (p *Peer) applyBroadcast(from string, b *msg.RulesBroadcast) {
	if b.Version <= p.rulesVersion {
		return
	}
	cfg, err := config.Parse(b.Text)
	if err != nil {
		p.log.Warn("bad rules broadcast", "err", err)
		return
	}
	p.rulesVersion = b.Version
	p.rulesText = b.Text
	if err := p.installConfig(cfg); err != nil {
		p.log.Warn("config install failed", "err", err)
	}
	// Forward the flood to everyone we know (dedup by version).
	for _, to := range p.floodTargets() {
		if to != from {
			p.sendTo(to, b)
		}
	}
}

// installConfig applies a parsed configuration: schema relations this node
// is missing are defined (when the wrapper supports DDL), the rule set is
// replaced, stale pipes are dropped and fresh ones created — exactly the
// paper's "drops old rules and pipes, and creates new ones, where
// necessary".
func (p *Peer) installConfig(cfg *config.Config) error {
	for node, addr := range cfg.Directory() {
		p.mergeBootstrapAddr(node, addr)
	}
	if decl := cfg.Node(p.name); decl != nil {
		if definer, ok := p.node.Wrapper().(interface {
			DefineRelation(def *relation.RelDef) error
		}); ok {
			have := p.node.Wrapper().Schema()
			for _, relName := range decl.Schema.Names() {
				if have.Rel(relName) == nil {
					def := decl.Schema.Rel(relName)
					attrs := make([]relation.Attr, len(def.Attrs))
					copy(attrs, def.Attrs)
					if err := definer.DefineRelation(&relation.RelDef{Name: def.Name, Attrs: attrs}); err != nil {
						return err
					}
				}
			}
		}
	}
	before := p.node.Acquaintances()
	// A rule that fails to install is reported after the rest of the
	// configuration is in place.
	err := p.node.SetRules(cfg.RuleDefs())
	after := make(map[string]bool)
	for _, a := range p.node.Acquaintances() {
		after[a] = true
	}
	// Drop pipes that no longer back any coordination rule.
	for _, old := range before {
		if !after[old] {
			p.apply(old, event{kind: evDropped})
		}
	}
	// Create pipes for the new acquaintances (paper §3: "When a node
	// starts, it creates pipes with those nodes, w.r.t. which it has
	// coordination rules").
	for a := range after {
		p.ensurePipe(a)
	}
	p.refreshReadRules()
	return err
}

func (p *Peer) handleStatsRequest(from string, req *msg.StatsRequest) {
	if p.statsSeen[req.ID] {
		return
	}
	p.statsSeen[req.ID] = true
	if req.Addr != "" {
		p.applyDirEntry(msg.DirEntry{Node: req.ReplyTo, Addr: req.Addr})
	}
	if req.ReplyTo != p.name {
		p.sendTo(req.ReplyTo, &msg.StatsReport{ID: req.ID, Node: p.name, Reports: p.node.Reports()})
	}
	// Forward the flood.
	for _, acq := range p.node.Acquaintances() {
		if acq != from && acq != req.ReplyTo {
			p.sendTo(acq, req)
		}
	}
}

func (p *Peer) handleStartUpdateCmd(from string, cmd *msg.StartUpdateCmd) {
	sid := cmd.SID
	if sid == "" {
		sid = msg.NewSID(p.name)
	}
	res, err := p.node.StartUpdate(sid)
	if err != nil {
		p.log.Warn("remote update start failed", "err", err)
		return
	}
	w := newWaiter()
	if w.replyTo = cmd.ReplyTo; w.replyTo == "" {
		w.replyTo = from
	}
	p.waiting[sid] = w
	p.dispatch(res)
}

// ---- Public API (all methods post into the actor loop) ----

// AddRule declares a coordination rule on this node.
func (p *Peer) AddRule(id, text string) error {
	var err error
	if derr := p.do(func() {
		err = p.node.AddRule(id, text)
		if err == nil {
			for _, a := range p.node.Acquaintances() {
				p.ensurePipe(a)
			}
		}
		p.refreshReadRules()
	}); derr != nil {
		return derr
	}
	return err
}

// ApplyConfig installs a configuration locally (as a broadcast from the
// super-peer would).
func (p *Peer) ApplyConfig(cfg *config.Config, version int) error {
	var err error
	if derr := p.do(func() {
		if version > p.rulesVersion {
			p.rulesVersion = version
			p.rulesText = cfg.String()
		}
		err = p.installConfig(cfg)
	}); derr != nil {
		return derr
	}
	return err
}

// SetDirectory merges dial addresses into the peer's directory at the
// static bootstrap epoch. Runtime membership facts (joins, tombstones —
// epoch > 0) take precedence and are never overwritten.
func (p *Peer) SetDirectory(dir map[string]string) {
	p.do(func() {
		for k, v := range dir {
			p.mergeBootstrapAddr(k, v)
		}
	})
}

// Insert adds tuples to a local relation (seeding workloads, console
// inserts). The storage keeps the tuples it is handed, so the caller's are
// copied here, at the API boundary.
func (p *Peer) Insert(rel string, tuples ...relation.Tuple) error {
	own := make([]relation.Tuple, len(tuples))
	for i, t := range tuples {
		own[i] = t.Clone()
	}
	var err error
	if derr := p.do(func() {
		_, err = p.node.Wrapper().InsertMany(rel, own)
	}); derr != nil {
		return derr
	}
	return err
}

// LSN returns the local database's commit sequence number, read off the
// actor loop: it advances with every commit, whichever session made it.
func (p *Peer) LSN() uint64 { return p.readPath.w.LSN() }

// Count returns a local relation's cardinality, read from the engine
// directly (short read lock, off the actor loop).
func (p *Peer) Count(rel string) int { return p.readPath.w.Count(rel) }

// Tuples returns a snapshot of a local relation, served from a pinned read
// view off the actor loop.
func (p *Peer) Tuples(rel string) []relation.Tuple {
	out := p.readPath.w.ReadSnapshot().Tuples(rel)
	for i, t := range out {
		out[i] = t.Clone()
	}
	return out
}

// Schema returns the node's shared schema.
func (p *Peer) Schema() *relation.Schema { return p.readPath.w.Schema() }

// RunUpdate starts a global update at this node and waits for its
// completion report.
func (p *Peer) RunUpdate(ctx context.Context) (msg.UpdateReport, error) {
	return p.runUpdate(ctx, "update", p.node.StartUpdate)
}

// RunScopedUpdate starts a query-dependent update at this node: only the
// data transitively relevant to the given relations is fetched, but it is
// materialised into the local databases along the way.
func (p *Peer) RunScopedUpdate(ctx context.Context, rels []string) (msg.UpdateReport, error) {
	return p.runUpdate(ctx, "scoped update", func(sid string) (core.Result, error) {
		return p.node.StartScopedUpdate(sid, rels)
	})
}

// runUpdate starts an update session on the actor loop and waits for its
// report. When ctx ends first, the waiter is dropped and the session runs on.
func (p *Peer) runUpdate(ctx context.Context, what string, start func(sid string) (core.Result, error)) (msg.UpdateReport, error) {
	sid := msg.NewSID(p.name)
	w := newWaiter()
	var startErr error
	if err := p.do(func() {
		res, err := start(sid)
		if err != nil {
			startErr = err
			return
		}
		p.waiting[sid] = w
		p.dispatch(res)
	}); err != nil {
		return msg.UpdateReport{}, err
	}
	if startErr != nil {
		return msg.UpdateReport{}, startErr
	}
	select {
	case <-w.done:
		return w.rep, nil
	case <-ctx.Done():
		p.dropWaiter(sid)
		return msg.UpdateReport{}, fmt.Errorf("peer %s: %s %s: %w", p.name, what, sid, ctx.Err())
	case <-p.stopped:
		return msg.UpdateReport{}, fmt.Errorf("peer %s: stopped during %s", p.name, what)
	}
}

// QueryStream starts a distributed query and returns a channel of streamed
// answers (closed at completion) plus a completion-report channel; see
// Statement.QueryStream.
func (p *Peer) QueryStream(ctx context.Context, q *cq.Query, mode core.QueryMode) (<-chan relation.Tuple, <-chan msg.UpdateReport, error) {
	return p.statement(q).QueryStream(ctx, mode)
}

// Query runs a distributed query to completion and returns all answers.
func (p *Peer) Query(ctx context.Context, q *cq.Query, mode core.QueryMode) ([]relation.Tuple, error) {
	return p.statement(q).Query(ctx, mode)
}

// LocalQuery evaluates a query against local data only; see
// Statement.LocalQuery.
func (p *Peer) LocalQuery(q *cq.Query, mode core.QueryMode) ([]relation.Tuple, error) {
	return p.statement(q).LocalQuery(mode)
}

// ReadStats returns the concurrent read path's counters.
func (p *Peer) ReadStats() ReadStats { return p.readPath.stats() }

// Running reports whether the peer's actor loop is still serving — the
// readiness signal of the HTTP gateway's /readyz.
func (p *Peer) Running() bool {
	select {
	case <-p.stopped:
		return false
	default:
		return true
	}
}

// WireStats returns the TCP transport's cumulative frame and byte counters
// (headers included, handshakes excluded); ok is false for peers not on a
// TCP transport. Safe off-loop: the transport reference is immutable and
// the counters are atomics.
func (p *Peer) WireStats() (frames, bytes uint64, ok bool) {
	if p.tcp == nil {
		return 0, 0, false
	}
	return p.tcp.FramesSent(), p.tcp.BytesSent(), true
}

// StorageStats returns the storage engine's report (row/byte counts per
// relation, WAL size, logged commits and their fsyncs); ok is false
// for a wrapper that does not expose its engine. Safe to call concurrently
// with the actor loop: the report reads the engine's published state.
func (p *Peer) StorageStats() (stats storage.DetailedStats, ok bool) {
	w, ok := p.node.Wrapper().(interface{ DB() *storage.DB })
	if !ok {
		return storage.DetailedStats{}, false
	}
	return w.DB().DetailedStats(), true
}

// ExportTotals returns the node's cumulative export counters — the roll-up
// of every completed session's report, never bounded by the reports ring.
func (p *Peer) ExportTotals() core.ExportTotals {
	var out core.ExportTotals
	p.do(func() { out = p.node.ExportTotals() })
	return out
}

// Reports returns the statistics module's accumulated per-session reports.
func (p *Peer) Reports() []msg.UpdateReport {
	var out []msg.UpdateReport
	p.do(func() { out = p.node.Reports() })
	return out
}

// ExportWatermarks reports each incoming link's persistent incremental-
// export LSN watermark (empty before the first materialising session and
// under FullExport).
func (p *Peer) ExportWatermarks() map[string]uint64 {
	var out map[string]uint64
	p.do(func() { out = p.node.ExportWatermarks() })
	return out
}

// ResetExportStateToward forgets this peer's incremental-export state for
// every rule importing into the given peer, forcing the next session to
// re-export those links in full. Callers use it when the importer's
// materialised data is known to be gone — e.g. it left the network and a
// fresh peer took its name — since the watermarks would otherwise keep back
// data the new importer never received.
func (p *Peer) ResetExportStateToward(peer string) {
	p.do(func() { p.node.ResetExportStateToward(peer) })
}

// Rules lists the node's coordination rules.
func (p *Peer) Rules() []*cq.Rule {
	var out []*cq.Rule
	p.do(func() { out = p.node.Rules() })
	return out
}

// Links describes the node's incoming and outgoing links (Figure 3).
func (p *Peer) Links() (outgoing, incoming []string) {
	p.do(func() {
		for _, r := range p.node.Outgoing() {
			outgoing = append(outgoing, r.ID)
		}
		for _, r := range p.node.Incoming() {
			incoming = append(incoming, r.ID)
		}
	})
	return outgoing, incoming
}

// Pipes lists the peers this node has live pipes with.
func (p *Peer) Pipes() []string { return p.tr.Peers() }

// OutboxStats returns the outbound pipeline's wire counters.
func (p *Peer) OutboxStats() transport.OutboxStats { return p.tr.Stats() }

// FlushOutbox blocks until every queued outbound frame has been written (or
// its pipe has failed).
func (p *Peer) FlushOutbox() { p.tr.Flush() }

// Discovered lists peers known through gossip that are not acquaintances —
// the paper's Figure 3 "discovered peers" panel.
func (p *Peer) Discovered() []string {
	var out []string
	p.do(func() {
		acq := make(map[string]bool)
		for _, a := range p.node.Acquaintances() {
			acq[a] = true
		}
		for node, m := range p.members {
			if m.listed && !m.tombstoned && !acq[node] && node != p.name {
				out = append(out, node)
			}
		}
	})
	return out
}

// SetStatsSink installs the consumer for StatsReport/UpdateFinished
// messages (used by the super-peer).
func (p *Peer) SetStatsSink(fn func(msg.StatsReport)) {
	p.do(func() { p.statsSink = fn })
}

// Broadcast sends a payload to every known live peer (super-peer floods).
func (p *Peer) Broadcast(payload msg.Payload) {
	p.do(func() {
		for _, node := range p.floodTargets() {
			p.sendTo(node, payload)
		}
	})
}

// SendTo sends a payload to one peer (super-peer commands).
func (p *Peer) SendTo(node string, payload msg.Payload) error {
	var err error
	if derr := p.do(func() { err = p.sendTo(node, payload) }); derr != nil {
		return derr
	}
	return err
}
