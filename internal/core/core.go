// Package core implements the paper's primary contribution: the coDB global
// update algorithm and the distributed query answering algorithm (§3 of the
// paper), as a pure state machine free of I/O. Each peer owns one Node; the
// peer's actor loop feeds inbound messages to the Node's Handle* methods and
// ships the returned outbound messages through a transport. Keeping the
// algorithm synchronous and deterministic makes it testable against the
// centralised chase oracle without any goroutines.
//
// # Semantics implemented (and the three deliberate readings of the paper)
//
// Global update: the session floods to every acquaintance with duplicate
// suppression ("request propagation is stopped … if that node has already
// received this request message"). On joining, a node evaluates every
// incoming link fully and pushes the frontier bindings to the link's
// importer; thereafter, data arriving on an outgoing link triggers
// semi-naive re-evaluation of the dependent incoming links ("incoming
// links, which are dependent on O, are computed by substituting R by T′"),
// with per-link sent caches suppressing re-sends ("we delete from Ri those
// tuples which have been already sent"). This computes the exact fixpoint
// of internal/chase.Fixpoint, which the oracle tests check.
//
// The sent caches live for one session. Across sessions a link is
// incremental by its LSN watermark alone: the next session evaluates only
// what was committed past it. The watermark is exact — a session's commit
// at a relaying peer moves it only when nothing else was committed since and
// the session's evaluations of the link saw exactly the data that commit
// produced (followCommit) — so no record of shipped bindings is kept, and
// the watermark persists as a mark in the peer's storage log.
//
// Query answering: the query is answered from local data immediately and
// propagated along the *relevant* outgoing links only, with node-ID path
// labels ("a node does not propagate a query request, if its ID is
// contained in the label"), per-session overlay storage instead of LDB
// commits, and streaming of new answers at the origin as results arrive.
// On cyclic rule graphs the path labels make query results the simple-path
// approximation of the fixpoint; the global update remains the mechanism
// for full materialisation, which is exactly the paper's motivation for it.
//
// Termination departs from §3, where a node closes an incoming link once
// the outgoing links it depends on are closed, and a session ends when its
// links are. Here Dijkstra–Scholten over the basic messages (requests and
// data; see internal/diffuse) alone decides completion: the initiator's
// deficit reaches zero exactly when nothing that could bring new data is in
// flight, which is the paper's quiescence condition ("all query results did
// not bring any new data") on any topology, cycles included. Link states
// would answer that question again, at a message and an ack per link per
// session, so nodes keep none.
//
// The third reading is what a rule transfers, which §3 leaves open for
// marked nulls. Following Franconi et al.'s characterisation of coDB
// networks (PAPERS.md), a link ships only what its source peer knows, the
// certain answers of the rule body: a frontier binding that holds a null is
// never exported (see internal/chase). Nulls stay at the peer that minted
// them, every shipped value comes from the finite active domain, and the
// global update computes that fixpoint on every topology with no bound on
// derivation depth.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/diffuse"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// Wrapper is the storage interface the algorithm needs from the Local
// Database — the paper's Wrapper module. StoreWrapper implements it over the
// embedded engine, for a node with an LDB and for a mediator alike
// (NewMediatorWrapper: the same engine, memory-only). Every wrapper captures
// changes and pins snapshots: sessions evaluate over pinned snapshots plus
// their staged tuples, and the peer serves reads from snapshots off its
// actor loop, so a wrapper's read methods must be safe for concurrent use.
type Wrapper interface {
	// Schema returns the node's shared schema (DBS).
	Schema() *relation.Schema
	// Scan iterates a relation (cq.Source).
	Scan(rel string, fn func(relation.Tuple) bool)
	// InsertMany inserts a batch with set semantics and returns the
	// tuples that were actually new (T′ = T \ R). The wrapper keeps the
	// tuples it is given.
	InsertMany(rel string, ts []relation.Tuple) ([]relation.Tuple, error)
	// InsertKeyed is InsertMany for rows of any relations that carry their
	// keys already (what a session staged): one commit — durable before it
	// returns, when the storage syncs on commit — reporting per row whether
	// it was new. Nothing is inserted when a row does not fit the schema.
	InsertKeyed(rows []relation.Row) ([]bool, error)
	// Count returns a relation's cardinality.
	Count(rel string) int
	// LSN returns the storage's monotone commit sequence number: the
	// incremental-export watermarks and the query-result cache key on it.
	LSN() uint64
	// Changes returns the tuples committed into rel after sinceLSN, in
	// commit order; ok is false when that history is unavailable (deletes,
	// changelog truncation, restart past a checkpoint) and the caller must
	// fall back to a full scan.
	Changes(rel string, sinceLSN uint64) (inserts []relation.Tuple, ok bool)
	// ReadSnapshot pins an immutable view at the current commit LSN: safe
	// for concurrent use, it never blocks (or is blocked by) writers.
	ReadSnapshot() *storage.Snapshot
	// Marks returns the marks the storage holds (storage.DB.Marks): where
	// the export watermarks outlive the process. The map must not be
	// modified.
	Marks() map[string]uint64
	// SetMark stages a mark (0 deletes it) to ride on the next commit
	// record; LogMarks writes the staged marks as a record of their own.
	SetMark(key string, v uint64)
	LogMarks() error
}

// Config configures a Node. The zero value of the feature toggles selects
// the incremental algorithm; FullExport selects the paper's, and Eval the
// join strategy.
type Config struct {
	// Self is this node's network-unique name.
	Self string
	// Wrapper is the local storage.
	Wrapper Wrapper
	// Eval selects the join strategy: the hash join, or the nested loop the
	// differential and oracle tests use as the correctness reference.
	Eval cq.EvalOptions
	// FullExport disables the cross-session incremental export machinery:
	// every session re-evaluates and re-ships every incoming link in full,
	// as the paper's algorithm does. The default (incremental) evaluates
	// only tuples committed past each link's persistent LSN watermark.
	FullExport bool
	// Clock supplies timestamps (UnixNano); nil uses a zero clock, which
	// keeps pure-core tests deterministic. The peer layer injects real
	// time.
	Clock func() int64
	// MaxReports bounds the retained per-session reports (0 = 128).
	MaxReports int
}

// Outbound is one message the caller must ship.
type Outbound struct {
	To      string
	Payload msg.Payload
}

// Finished describes a session that completed at this node.
type Finished struct {
	SID       string
	Initiator bool
	Report    msg.UpdateReport
}

// Result aggregates everything a Handle call produced.
type Result struct {
	// Out lists messages to send, in order.
	Out []Outbound
	// Answers carries newly discovered query answers when this node is
	// the origin of a query session; AnswersSID names that session.
	Answers    []relation.Tuple
	AnswersSID string
	// Finished lists sessions that completed during this call.
	Finished []Finished
	// Errors lists chase/eval failures encountered while exporting or
	// streaming answers. The session keeps going (termination must still
	// be reached), but its result may be incomplete; the per-session
	// report counts them as EvalErrors.
	Errors []error
}

func (r *Result) send(to string, p msg.Payload) {
	r.Out = append(r.Out, Outbound{To: to, Payload: p})
}

// GroupedOut returns Out stably regrouped so that messages to the same
// destination are contiguous: destinations appear in first-send order, and
// within a destination the original send order is preserved. Messages to
// distinct peers are causally independent (the termination detector counts
// sends, it does not order them across pipes), so shipping the groups
// back-to-back is equivalent to shipping Out — but it hands the transport
// outbox contiguous per-destination runs to coalesce into batch frames.
func (r *Result) GroupedOut() []Outbound {
	if len(r.Out) < 3 {
		return r.Out
	}
	order := make([]string, 0, 4)
	byDest := make(map[string][]Outbound, 4)
	for _, o := range r.Out {
		if _, ok := byDest[o.To]; !ok {
			order = append(order, o.To)
		}
		byDest[o.To] = append(byDest[o.To], o)
	}
	if len(order) == len(r.Out) {
		return r.Out // nothing to group
	}
	out := make([]Outbound, 0, len(r.Out))
	for _, to := range order {
		out = append(out, byDest[to]...)
	}
	return out
}

func (r *Result) merge(other Result) {
	r.Out = append(r.Out, other.Out...)
	r.Answers = append(r.Answers, other.Answers...)
	r.Finished = append(r.Finished, other.Finished...)
	r.Errors = append(r.Errors, other.Errors...)
}

// ruleState is one coordination rule known to this node.
type ruleState struct {
	rule *cq.Rule
	text string
}

// exportState is one incoming link's persistent export state: its
// watermark, the storage LSN up to which the importer holds every binding of
// the rule over this node's data. A session exports only what was committed
// past it (exportSince) and moves it to the commits it fully exported
// through (followCommit), so a later session re-evaluates nothing the
// importer already has. The storage keeps it as a mark, under a key naming
// the rule text, so it survives restarts and a redefined rule never
// inherits it.
//
// Like the per-session sent caches, a watermark records *sends*, not
// deliveries. A data message written off by the termination detector on a
// failed pipe makes the node distrust the importer (distrustImporter), which
// resets the state, and the next session re-exports the link in full: set
// semantics make a re-ship safe, never a skipped one.
type exportState struct {
	watermark uint64
	mark      string // the storage mark key (markKey)
}

// markKey names a rule's watermark in the storage: the rule ID and a hash of
// the rule text.
func markKey(id, text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%s\x00%016x", id, h.Sum64())
}

// Node is the algorithm state machine for one peer.
type Node struct {
	cfg      Config
	rules    map[string]*ruleState
	appliers map[string]*chase.Applier // per outgoing rule (Target == Self)
	sessions map[string]*session       // running sessions
	// finished maps every session that finished here to the peers it
	// shipped data to (see forget): one small entry per finished session,
	// kept so a stale message is acknowledged, not taken for a new session.
	finished map[string][]string
	ds       *diffuse.Engine
	reports  []msg.UpdateReport

	// exports holds the per-rule persistent export state of the
	// incremental machinery (Source == Self rules only).
	exports map[string]*exportState

	// policies holds the per-rule propagation policies (push is implicit
	// for rules without one); propStats the per-rule propagation counters;
	// totals the cumulative roll-up of the session-report export counters.
	policies  map[string]*linkPolicy
	propStats map[string]*propStat
	totals    ExportTotals

	// deferAcks batches acknowledgement flushes across a burst of Handle
	// calls; dirty tracks the sessions awaiting a flush. See DeferAcks.
	deferAcks bool
	dirty     map[string]*session

	// Rule-set views, rebuilt lazily after rule mutations. Outgoing /
	// Incoming / Acquaintances sit on the per-message hot path (every data
	// message re-exports through the incoming links, every request scans
	// the outgoing ones), so they must not re-sort the rule map on each
	// call.
	outgoingCache []*cq.Rule
	incomingCache []*cq.Rule
	acqCache      []string

	// rulesVer advances on every rule-set mutation. Unlike the rest of the
	// Node it is atomic, because the peer's concurrent read path uses it as
	// a cache-invalidation token from outside the actor loop.
	rulesVer atomic.Uint64
}

// invalidateRuleCaches drops the cached rule-set views after a mutation.
func (n *Node) invalidateRuleCaches() {
	n.outgoingCache, n.incomingCache, n.acqCache = nil, nil, nil
	n.rulesVer.Add(1)
}

// RuleSetVersion returns a counter that advances whenever the rule set
// mutates. Safe to call from any goroutine (it is the one piece of Node
// state read off the actor loop): the query-result cache keys validity on
// it, so a rule broadcast mid-query invalidates cached results.
func (n *Node) RuleSetVersion() uint64 { return n.rulesVer.Load() }

// NewNode builds a node. Config.Self and Config.Wrapper are required.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("core: Config.Self is required")
	}
	if cfg.Wrapper == nil {
		return nil, fmt.Errorf("core: Config.Wrapper is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return 0 }
	}
	if cfg.MaxReports == 0 {
		cfg.MaxReports = 128
	}
	return &Node{
		cfg:       cfg,
		rules:     make(map[string]*ruleState),
		appliers:  make(map[string]*chase.Applier),
		sessions:  make(map[string]*session),
		finished:  make(map[string][]string),
		ds:        diffuse.New(cfg.Self),
		dirty:     make(map[string]*session),
		exports:   make(map[string]*exportState),
		policies:  make(map[string]*linkPolicy),
		propStats: make(map[string]*propStat),
	}, nil
}

// DeferAcks toggles burst mode: while on, Handle accumulates
// acknowledgements (and the initiator's termination check) instead of
// emitting them per message; FlushDeferred emits them in one go. This is
// Dijkstra–Scholten's "a node acknowledges when it goes passive" applied to
// a whole inbox burst — the node stays active while more messages are
// queued, so a burst of n data messages from one sender costs one counted
// ack instead of n. Sent-counts are still reported to the detector inside
// each Handle call, before any deferred flush runs, so an ack can never
// overtake the sends it accounts for.
func (n *Node) DeferAcks(on bool) { n.deferAcks = on }

// FlushDeferred ends a burst: deferral is switched off and every session
// touched while it was on is flushed — what they staged is committed, owed
// acknowledgements are emitted (counted, one per sender) and the initiator's
// termination detection runs.
// Callers must dispatch the result like any Handle result.
func (n *Node) FlushDeferred() Result {
	n.deferAcks = false
	var r Result
	dirty := make([]*session, 0, len(n.dirty))
	for _, s := range n.dirty {
		dirty = append(dirty, s)
	}
	clear(n.dirty)
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].sid < dirty[j].sid })
	// One commit, one sync for everything the burst staged; only then do
	// the acknowledgements it owes go out.
	n.commitStaged(&r, dirty...)
	for _, s := range dirty {
		n.emitDS(s, &r)
	}
	return r
}

// Self returns the node name.
func (n *Node) Self() string { return n.cfg.Self }

// Wrapper returns the node's storage wrapper.
func (n *Node) Wrapper() Wrapper { return n.cfg.Wrapper }

// chaseOpts builds the chase options from the config.
func (n *Node) chaseOpts() chase.Options {
	return chase.Options{Eval: n.cfg.Eval}
}

// AddRule registers a coordination rule. The rule must involve this node as
// source or target and connect two distinct peers.
func (n *Node) AddRule(id, text string) error {
	rule, err := cq.ParseRule(id, text)
	if err != nil {
		return err
	}
	return n.addParsedRule(rule, text)
}

func (n *Node) addParsedRule(rule *cq.Rule, text string) error {
	if rule.Source == rule.Target {
		return fmt.Errorf("core: rule %s connects %s to itself; coordination rules link distinct peers", rule.ID, rule.Source)
	}
	if rule.Source != n.cfg.Self && rule.Target != n.cfg.Self {
		return fmt.Errorf("core: rule %s (%s <- %s) does not involve node %s", rule.ID, rule.Target, rule.Source, n.cfg.Self)
	}
	if prev, ok := n.rules[rule.ID]; ok && prev.text == text {
		return nil // idempotent re-add
	}
	// A redefined rule invalidates its export state: the old watermark
	// describes a different query.
	n.forgetExport(rule.ID)
	rs := &ruleState{rule: rule, text: text}
	n.rules[rule.ID] = rs
	n.restoreExport(rs)
	n.invalidateRuleCaches()
	if rule.Target == n.cfg.Self {
		a, err := chase.NewApplier(rule, n.chaseOpts())
		if err != nil {
			return err
		}
		n.appliers[rule.ID] = a
	}
	return nil
}

// RemoveRule drops a rule (no-op if unknown). Its propagation policy goes
// with it; the accumulated counters stay (they are historical).
func (n *Node) RemoveRule(id string) {
	delete(n.rules, id)
	delete(n.appliers, id)
	delete(n.policies, id)
	n.forgetExport(id)
	n.invalidateRuleCaches()
}

// restoreExport installs the watermark the storage kept for the rule, if
// any, and deletes the marks of the rule's earlier definitions.
func (n *Node) restoreExport(rs *ruleState) {
	if n.cfg.FullExport || rs.rule.Source != n.cfg.Self {
		return
	}
	key, stale := markKey(rs.rule.ID, rs.text), false
	for k, wm := range n.cfg.Wrapper.Marks() {
		switch {
		case k == key:
			n.exports[rs.rule.ID] = &exportState{watermark: wm, mark: key}
		case strings.HasPrefix(k, rs.rule.ID+"\x00"):
			n.cfg.Wrapper.SetMark(k, 0)
			stale = true
		}
	}
	if stale {
		n.cfg.Wrapper.LogMarks()
	}
}

// beginExport starts a rule's export state at the given watermark.
func (n *Node) beginExport(id string, watermark uint64) {
	es := &exportState{watermark: watermark, mark: markKey(id, n.rules[id].text)}
	n.exports[id] = es
	n.cfg.Wrapper.SetMark(es.mark, watermark)
}

// setWatermark moves a link's watermark. Its mark rides on the storage's
// next commit record: a crash before that loses the move, which costs one
// re-ship, and never puts a watermark ahead of the data it describes.
func (n *Node) setWatermark(es *exportState, lsn uint64) {
	if es.watermark != lsn {
		es.watermark = lsn
		n.cfg.Wrapper.SetMark(es.mark, lsn)
	}
}

// forgetExport drops one rule's export state, if it has any, and logs the
// reset at once, so that no restart finds the watermark again. (A reset the
// storage fails to log fails every later commit there too.)
func (n *Node) forgetExport(id string) {
	if es, ok := n.exports[id]; ok {
		delete(n.exports, id)
		n.cfg.Wrapper.SetMark(es.mark, 0)
		n.cfg.Wrapper.LogMarks()
	}
}

// ResetExportStateToward forgets the export state of every rule importing
// into the given peer. Callers use it when that peer's materialised data is
// known to be gone (it left the network, or was rebuilt from scratch):
// the watermarks assert "the importer already has this",
// which no longer holds, so the next session degrades to a full export and
// re-materialises the importer completely.
func (n *Node) ResetExportStateToward(peer string) {
	for id, rs := range n.rules {
		if rs.rule.Source == n.cfg.Self && rs.rule.Target == peer {
			n.forgetExport(id)
		}
	}
}

// SetRules replaces the whole rule set (dynamic reconfiguration by the
// super-peer). Rules not involving this node are ignored, matching the
// paper's "each peer looks for relevant coordination rules".
func (n *Node) SetRules(defs []msg.RuleDef) error {
	old, oldAppliers := n.rules, n.appliers
	n.rules = make(map[string]*ruleState)
	n.appliers = make(map[string]*chase.Applier)
	n.invalidateRuleCaches()
	for _, d := range defs {
		rule, err := cq.ParseRule(d.ID, d.Text)
		if err != nil {
			return err
		}
		if rule.Source != n.cfg.Self && rule.Target != n.cfg.Self {
			continue
		}
		// Carry unchanged rules (and their appliers) into the fresh maps,
		// so addParsedRule's idempotent early-return preserves their
		// export state instead of invalidating it.
		if prev, ok := old[rule.ID]; ok && prev.text == d.Text {
			n.rules[rule.ID] = prev
			if a, ok := oldAppliers[rule.ID]; ok {
				n.appliers[rule.ID] = a
			}
		}
		if err := n.addParsedRule(rule, d.Text); err != nil {
			return err
		}
	}
	// Export state of rules the new configuration dropped goes with them
	// (addParsedRule already invalidated redefined ones).
	for id := range n.exports {
		if _, ok := n.rules[id]; !ok {
			n.forgetExport(id)
		}
	}
	return nil
}

// ExportWatermarks reports each incoming link's persistent LSN watermark
// (diagnostics and tests).
func (n *Node) ExportWatermarks() map[string]uint64 {
	out := make(map[string]uint64, len(n.exports))
	for id, es := range n.exports {
		out[id] = es.watermark
	}
	return out
}

// Rules returns the known rules, sorted by ID.
func (n *Node) Rules() []*cq.Rule {
	out := make([]*cq.Rule, 0, len(n.rules))
	for _, rs := range n.rules {
		out = append(out, rs.rule)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RuleText returns a rule's concrete syntax ("" if unknown).
func (n *Node) RuleText(id string) string {
	if rs, ok := n.rules[id]; ok {
		return rs.text
	}
	return ""
}

// Outgoing returns the rules through which this node imports (Target ==
// Self), sorted by ID — the node's outgoing links. The returned slice is a
// cached view: callers must not modify it.
func (n *Node) Outgoing() []*cq.Rule {
	if n.outgoingCache == nil {
		out := make([]*cq.Rule, 0, 4)
		for _, rs := range n.rules {
			if rs.rule.Target == n.cfg.Self {
				out = append(out, rs.rule)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		n.outgoingCache = out
	}
	return n.outgoingCache
}

// Incoming returns the rules through which this node exports (Source ==
// Self), sorted by ID — the node's incoming links. The returned slice is a
// cached view: callers must not modify it.
func (n *Node) Incoming() []*cq.Rule {
	if n.incomingCache == nil {
		out := make([]*cq.Rule, 0, 4)
		for _, rs := range n.rules {
			if rs.rule.Source == n.cfg.Self {
				out = append(out, rs.rule)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		n.incomingCache = out
	}
	return n.incomingCache
}

// Acquaintances returns every peer this node shares a rule with, sorted.
// The returned slice is a cached view: callers must not modify it.
func (n *Node) Acquaintances() []string {
	if n.acqCache == nil {
		set := make(map[string]bool)
		for _, rs := range n.rules {
			if rs.rule.Source == n.cfg.Self {
				set[rs.rule.Target] = true
			} else {
				set[rs.rule.Source] = true
			}
		}
		out := make([]string, 0, len(set))
		for p := range set {
			out = append(out, p)
		}
		sort.Strings(out)
		n.acqCache = out
	}
	return n.acqCache
}

// Reports returns the completed-session reports accumulated at this node
// (most recent last), as the paper's statistics module does.
func (n *Node) Reports() []msg.UpdateReport {
	out := make([]msg.UpdateReport, len(n.reports))
	copy(out, n.reports)
	return out
}

// ActiveSessions lists sessions not yet finished (diagnostics).
func (n *Node) ActiveSessions() []string {
	var out []string
	for sid := range n.sessions {
		out = append(out, sid)
	}
	sort.Strings(out)
	return out
}

// NoteReport records an externally produced per-session report in the
// statistics module — the peer's session-free local query path uses it so
// bypassed queries still show up in Reports() and super-peer aggregation.
// Must be called from the owning actor loop, like every other Node method.
func (n *Node) NoteReport(rep msg.UpdateReport) { n.recordReport(rep) }

func (n *Node) recordReport(rep msg.UpdateReport) {
	n.totals.Sessions++
	n.totals.ExportsFull += rep.ExportsFull
	n.totals.ExportsIncremental += rep.ExportsIncremental
	n.totals.ExportsFallback += rep.ExportsFallback
	n.totals.SkippedByWatermark += rep.SkippedByWatermark
	n.totals.IncrementalMsgs += rep.IncrementalMsgs
	n.reports = append(n.reports, rep)
	if len(n.reports) > n.cfg.MaxReports {
		n.reports = n.reports[len(n.reports)-n.cfg.MaxReports:]
	}
}
