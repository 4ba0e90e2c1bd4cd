// Package peer is the runtime of one coDB node: it wires the algorithm
// state machine (internal/core) to a transport, the local database, the
// statistics module and the user-facing API — the Database Manager, JXTA
// Layer and Wrapper boxes of the paper's Figure 1, running as a single
// actor goroutine.
//
// All node state is owned by the actor loop; the public methods post
// commands into the loop and wait on reply channels, so the Peer is safe
// for concurrent use without any shared-state locking.
//
// Outbound traffic goes through transport.Outbox by default: sends are
// asynchronous per-destination enqueues (a slow pipe never stalls the
// actor), queued payloads coalesce into batch frames, and inbox bursts
// defer acknowledgements (core.DeferAcks) so n messages from one sender
// cost one counted ack. Delivery failures observed after the fact — a
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
	"slices"
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
	// QueryCacheSize bounds the concurrent read path's query-result cache
	// (0 selects core.DefaultQueryCacheSize).
	QueryCacheSize int
	// LinkPolicies maps rule IDs to propagation policy modes ("push",
	// "pull", "adaptive", "filter"); LinkFilters maps rule IDs to filter
	// predicates (comma-separated comparisons over the rule's frontier
	// variables). Policies are remembered and applied when the rule is
	// declared; see core.PolicyMode.
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
	// Outbox tunes the outbound pipeline (queue bound, batch caps); the
	// OnDrop hook is owned by the peer, which uses it to compensate the
	// termination detector for undeliverable messages. A caller-supplied
	// OnDrop is still invoked, after the peer's bookkeeping.
	Outbox transport.OutboxOptions
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

	inbox chan any // envelopes and commands, consumed by the actor loop

	// Actor-owned state (no locks; only the loop touches these).
	members      map[string]*member // directory, pipes and liveness, per remote peer
	selfEpoch    uint64             // this node's own incarnation number
	rulesVersion int
	rulesText    string          // concrete syntax of the installed config (join handoff)
	statsSeen    map[string]bool // stats-request flood dedup
	queries      map[string]*queryWaiter
	updates      map[string]chan msg.UpdateReport
	remoteCmds   map[string]string // sid -> ReplyTo for StartUpdateCmd
	statsSink    func(msg.StatsReport)
	linkPolicies map[string]linkPolicyCfg // remembered policies, re-applied on reconfiguration
	joinWait     chan *msg.JoinAccept     // armed by JoinVia, fired by handleJoinAccept

	stopped  chan struct{} // closed by Stop
	loopDone chan struct{} // closed when the actor loop has exited
}

type queryWaiter struct {
	answers chan relation.Tuple
	done    chan msg.UpdateReport
}

// inboxCap bounds the actor mailbox; transports enqueue via goroutine
// handoff so peers never deadlock on each other.
const inboxCap = 1024

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
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &Peer{
		name:       opts.Name,
		node:       node,
		log:        log.With("peer", opts.Name),
		inbox:      make(chan any, inboxCap),
		members:    make(map[string]*member),
		selfEpoch:  opts.Epoch,
		timeout:    opts.SuspicionTimeout,
		statsSeen:  make(map[string]bool),
		queries:    make(map[string]*queryWaiter),
		updates:    make(map[string]chan msg.UpdateReport),
		remoteCmds: make(map[string]string),
		stopped:    make(chan struct{}),
		loopDone:   make(chan struct{}),

		prop:         newPropState(),
		maxStaleness: opts.MaxStaleness,
		pullTimeout:  opts.PullTimeout,
	}
	if p.pullTimeout <= 0 {
		p.pullTimeout = DefaultPullTimeout
	}
	if len(opts.LinkPolicies) > 0 || len(opts.LinkFilters) > 0 {
		p.linkPolicies = make(map[string]linkPolicyCfg)
		for id, mode := range opts.LinkPolicies {
			p.linkPolicies[id] = linkPolicyCfg{mode: mode, filter: opts.LinkFilters[id]}
		}
		for id, f := range opts.LinkFilters {
			if _, ok := p.linkPolicies[id]; !ok {
				p.linkPolicies[id] = linkPolicyCfg{mode: "push", filter: f}
			}
		}
	}
	for k, v := range opts.Directory {
		p.members[k] = &member{listed: true, addr: v}
	}
	p.readPath = newReadPath(opts.Name, opts.Wrapper, node, opts.Eval, opts.QueryCacheSize)
	p.readPath.record = p.noteLocalQueryReport
	p.readPath.beforeRead = p.maybePullForRead
	p.refreshReadRules() // loop not yet running: safe here
	oo := opts.Outbox
	userDrop := oo.OnDrop
	oo.OnDrop = func(to string, payload msg.Payload, err error) {
		p.noteLostSend(to, payload, err)
		if userDrop != nil {
			userDrop(to, payload, err)
		}
	}
	p.tr = transport.NewOutbox(opts.Transport, oo)
	p.tcp, _ = rawTransport(p.tr).(*transport.TCP)
	p.tr.SetHandler(func(env msg.Envelope) {
		select {
		case p.inbox <- env:
		case <-p.stopped:
		}
	})
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

// notePipeDown posts a pipeDown into the actor loop without blocking the
// transport goroutine that reports it.
func (p *Peer) notePipeDown(peer string) {
	go func() {
		select {
		case p.inbox <- pipeDown{peer: peer}:
		case <-p.stopped:
		}
	}()
}

// lostSend reports an asynchronous delivery failure from the outbox; the
// actor loop compensates the termination detector for it.
type lostSend struct {
	to      string
	payload msg.Payload
	err     error
}

// noteLostSend posts a lostSend into the actor loop. It is called from an
// outbox writer goroutine and must not block it: the handoff runs in its
// own goroutine so a full inbox cannot stall (or deadlock with) the writer.
func (p *Peer) noteLostSend(to string, payload msg.Payload, err error) {
	go func() {
		select {
		case p.inbox <- lostSend{to: to, payload: payload, err: err}:
		case <-p.stopped:
		}
	}()
}

// noteLocalQueryReport records a bypassed query's synthetic report in the
// node's statistics module, so session-free local queries still appear in
// Reports() and super-peer aggregation. The post is strictly best-effort
// and non-blocking: when the inbox is saturated (a heavy update session in
// flight — exactly when readers must not re-couple to the loop), the
// report is dropped rather than parking a goroutine per query.
func (p *Peer) noteLocalQueryReport(rep msg.UpdateReport) {
	cmd := command{run: func() { p.node.NoteReport(rep) }, done: make(chan struct{})}
	select {
	case p.inbox <- cmd:
	case <-p.stopped:
	default:
	}
}

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// command is posted into the actor loop; run executes with exclusive access
// to all peer state.
type command struct {
	run  func()
	done chan struct{}
}

// do runs fn inside the actor loop and waits for it.
func (p *Peer) do(fn func()) error {
	cmd := command{run: fn, done: make(chan struct{})}
	select {
	case p.inbox <- cmd:
	case <-p.stopped:
		return fmt.Errorf("peer %s: %w", p.name, ErrStopped)
	}
	select {
	case <-cmd.done:
		return nil
	case <-p.stopped:
		return fmt.Errorf("peer %s: %w", p.name, ErrStopped)
	}
}

func (p *Peer) loop() {
	defer close(p.loopDone)
	var carried any // non-envelope item pulled out of the inbox by a burst
	for {
		item := carried
		carried = nil
		if item == nil {
			select {
			case item = <-p.inbox:
			case <-p.stopped:
				return
			}
		}
		switch v := item.(type) {
		case msg.Envelope:
			carried = p.handleEnvelopeBurst(v)
		case lostSend:
			p.handleLostSend(v)
		case pipeDown:
			p.handlePipeDown(v)
		case command:
			v.run()
			close(v.done)
		}
	}
}

// handlePipeDown writes off every in-flight message toward a failed pipe.
// An asynchronous write can succeed into a connection the far side has
// already abandoned — no send error is ever observed for such a message —
// so when the transport reports the pipe down, the outstanding
// per-destination deficit counts messages whose acknowledgements may never
// arrive. The notification travels through a goroutine, so it can be
// stale: the lifecycle ignores it while the transport lists a live pipe.
func (p *Peer) handlePipeDown(d pipeDown) {
	p.apply(d.peer, event{kind: evPipeDown, pipeLive: slices.Contains(p.tr.Peers(), d.peer)})
}

// maxBurst bounds how many queued inbox items one burst may drain, so a
// firehose of inbound traffic cannot starve commands indefinitely.
const maxBurst = 256

// handleEnvelopeBurst processes one envelope plus every further envelope
// already queued in the inbox as a single activity period: per-message
// acknowledgements are deferred across the burst (core.DeferAcks) and
// flushed once at the end, coalescing a burst of n messages from one sender
// into one counted ack. Messages themselves are still handled — and their
// outbound results shipped — strictly in arrival order. The first
// non-envelope item pulled while draining is returned for the caller to
// process after the burst (it arrived after every envelope handled here).
func (p *Peer) handleEnvelopeBurst(first msg.Envelope) (carried any) {
	p.node.DeferAcks(true)
	p.handleEnvelope(first)
	for i := 1; i < maxBurst && carried == nil; i++ {
		select {
		case item := <-p.inbox:
			if env, ok := item.(msg.Envelope); ok {
				p.handleEnvelope(env)
			} else {
				carried = item
			}
		default:
			carried = noMoreItems{}
		}
	}
	p.dispatch(p.node.FlushDeferred())
	if _, ok := carried.(noMoreItems); ok {
		return nil
	}
	return carried
}

// noMoreItems marks a burst that drained the inbox dry (vs. one ended by a
// non-envelope item that still needs processing).
type noMoreItems struct{}

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

// dispatch ships a core Result: messages out, answers to query waiters,
// finished sessions to update waiters.
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
		if w, ok := p.queries[res.AnswersSID]; ok {
			for _, a := range res.Answers {
				select {
				case w.answers <- a:
				case <-p.stopped: // a reader that went away must not hold up Stop
				}
			}
		}
	}
	for _, f := range res.Finished {
		p.log.Debug("session finished", "sid", f.SID, "initiator", f.Initiator)
		if ch, ok := p.updates[f.SID]; ok {
			ch <- f.Report
			delete(p.updates, f.SID)
		}
		if w, ok := p.queries[f.SID]; ok {
			w.done <- f.Report
			close(w.answers)
			delete(p.queries, f.SID)
		}
		if replyTo, ok := p.remoteCmds[f.SID]; ok {
			delete(p.remoteCmds, f.SID)
			p.sendTo(replyTo, &msg.UpdateFinished{SID: f.SID, Node: p.name, Report: f.Report})
		}
		if f.Report.Kind == msg.KindScoped {
			p.settlePulls(f)
		}
		if ps, ok := p.prop.pulls[f.SID]; ok {
			p.finishPull(ps, f.Report)
		}
	}
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
	if err := p.node.SetRules(cfg.RuleDefs()); err != nil {
		return err
	}
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
	p.applyLinkPolicies()
	p.refreshReadRules()
	return nil
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
	replyTo := cmd.ReplyTo
	if replyTo == "" {
		replyTo = from
	}
	p.remoteCmds[sid] = replyTo
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
			p.applyLinkPolicies()
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
	sid := msg.NewSID(p.name)
	ch := make(chan msg.UpdateReport, 1)
	var startErr error
	if err := p.do(func() {
		res, err := p.node.StartUpdate(sid)
		if err != nil {
			startErr = err
			return
		}
		p.updates[sid] = ch
		p.dispatch(res)
	}); err != nil {
		return msg.UpdateReport{}, err
	}
	if startErr != nil {
		return msg.UpdateReport{}, startErr
	}
	select {
	case rep := <-ch:
		return rep, nil
	case <-ctx.Done():
		p.do(func() { delete(p.updates, sid) })
		return msg.UpdateReport{}, fmt.Errorf("peer %s: update %s: %w", p.name, sid, ctx.Err())
	case <-p.stopped:
		return msg.UpdateReport{}, fmt.Errorf("peer %s: stopped during update", p.name)
	}
}

// RunScopedUpdate starts a query-dependent update at this node: only the
// data transitively relevant to the given relations is fetched, but it is
// materialised into the local databases along the way.
func (p *Peer) RunScopedUpdate(ctx context.Context, rels []string) (msg.UpdateReport, error) {
	sid := msg.NewSID(p.name)
	ch := make(chan msg.UpdateReport, 1)
	var startErr error
	if err := p.do(func() {
		res, err := p.node.StartScopedUpdate(sid, rels)
		if err != nil {
			startErr = err
			return
		}
		p.updates[sid] = ch
		p.dispatch(res)
	}); err != nil {
		return msg.UpdateReport{}, err
	}
	if startErr != nil {
		return msg.UpdateReport{}, startErr
	}
	select {
	case rep := <-ch:
		return rep, nil
	case <-ctx.Done():
		p.do(func() { delete(p.updates, sid) })
		return msg.UpdateReport{}, fmt.Errorf("peer %s: scoped update %s: %w", p.name, sid, ctx.Err())
	case <-p.stopped:
		return msg.UpdateReport{}, fmt.Errorf("peer %s: stopped during scoped update", p.name)
	}
}

// QueryStream starts a distributed query and returns a channel of streamed
// answers (closed at completion) plus a completion-report channel; see
// Statement.QueryStream.
func (p *Peer) QueryStream(q *cq.Query, mode core.QueryMode) (<-chan relation.Tuple, <-chan msg.UpdateReport, error) {
	return p.statement(q).QueryStream(mode)
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

// ReadStats returns the concurrent read path's query-cache counters.
func (p *Peer) ReadStats() core.QueryCacheStats { return p.readPath.stats() }

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
