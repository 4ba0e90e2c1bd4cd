package peer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
)

// DefaultPullTimeout bounds how long a local query blocks on a triggered
// pull before answering from the stale extent.
const DefaultPullTimeout = 2 * time.Second

// coldDeliveries is the adaptive policy's demotion threshold: after this
// many consecutive pushed data deliveries with zero local reads of the
// link's head relations, the importer signals the exporter to go lazy.
const coldDeliveries = 2

// maxStalenessSamples bounds the retained staleness-at-pull measurements.
const maxStalenessSamples = 4096

// pullResult is delivered to a synchronous pull waiter.
type pullResult struct {
	fresh int
	err   error
}

// staleLink is the importer-side record of one hinted, not-yet-pulled link.
type staleLink struct {
	lsn   uint64    // exporter LSN at the latest hint
	since time.Time // first unserved hint arrival (staleness clock)
	timer *time.Timer
}

// propState is the peer's propagation-policy state. The actor loop owns all
// transitions; the mutex exists because the concurrent read path consults
// staleness and records read demand off the loop.
type propState struct {
	mu sync.Mutex
	// stale maps outgoing (importing) rule IDs to their staleness record.
	stale map[string]*staleLink
	// waiters holds synchronous pull waiters per rule; inflightAt stamps
	// the last outstanding PullRequest (dedup with retry-after).
	waiters    map[string][]chan pullResult
	inflightAt map[string]time.Time
	// samples are staleness-at-pull measurements (importer side, bounded).
	samples []time.Duration
	// Adaptive demand tracking (importer side): reads counts local queries
	// touching each rule's head relations, lastReads/cold detect
	// consecutive unread deliveries, demandPull mirrors the last LinkDemand
	// sent to the exporter.
	reads      map[string]uint64
	lastReads  map[string]uint64
	cold       map[string]int
	demandPull map[string]bool
}

func newPropState() *propState {
	return &propState{
		stale:      make(map[string]*staleLink),
		waiters:    make(map[string][]chan pullResult),
		inflightAt: make(map[string]time.Time),
		reads:      make(map[string]uint64),
		lastReads:  make(map[string]uint64),
		cold:       make(map[string]int),
		demandPull: make(map[string]bool),
	}
}

// PropagationStats is the peer's propagation-policy observability snapshot.
type PropagationStats struct {
	// Links carries the per-rule counters (policy, hints, pulls, byte
	// split); see core.LinkPropagationStats.
	Links []core.LinkPropagationStats `json:"links"`
	// StaleLinks lists outgoing links currently hinted stale (importer
	// side, not yet pulled).
	StaleLinks []string `json:"stale_links,omitempty"`
	// StalenessP50/P99 summarise the observed staleness at pull time
	// (hint arrival to materialised pull).
	StalenessP50 time.Duration `json:"staleness_p50_ns"`
	StalenessP99 time.Duration `json:"staleness_p99_ns"`
	// StalenessSamples is the number of measurements behind the quantiles.
	StalenessSamples int `json:"staleness_samples"`
}

// SetLinkPolicy configures (or reconfigures) one rule's propagation policy.
// The policy is remembered and re-applied across rule reconfigurations; an
// unknown rule ID is accepted and takes effect when the rule is declared.
func (p *Peer) SetLinkPolicy(ruleID, mode, filter string) error {
	if _, err := core.ParsePolicyMode(mode); err != nil {
		return err
	}
	var err error
	if derr := p.do(func() {
		if p.linkPolicies == nil {
			p.linkPolicies = make(map[string]linkPolicyCfg)
		}
		p.linkPolicies[ruleID] = linkPolicyCfg{mode: mode, filter: filter}
		err = p.applyLinkPolicy(ruleID)
	}); derr != nil {
		return derr
	}
	return err
}

// linkPolicyCfg is one remembered policy configuration.
type linkPolicyCfg struct {
	mode   string
	filter string
}

// applyLinkPolicy installs one remembered policy on the node if the rule is
// known (loop only).
func (p *Peer) applyLinkPolicy(ruleID string) error {
	cfg, ok := p.linkPolicies[ruleID]
	if !ok {
		return nil
	}
	if p.node.RuleText(ruleID) == "" {
		return nil // rule not declared yet; applied when it arrives
	}
	return p.node.SetLinkPolicy(ruleID, cfg.mode, cfg.filter)
}

// applyLinkPolicies re-installs every remembered policy whose rule is known
// (loop only); called after rule declarations and reconfigurations.
func (p *Peer) applyLinkPolicies() {
	for id := range p.linkPolicies {
		if err := p.applyLinkPolicy(id); err != nil {
			p.log.Warn("link policy not applied", "rule", id, "err", err)
		}
	}
}

// PropagationStats snapshots the peer's propagation counters and staleness
// quantiles.
func (p *Peer) PropagationStats() PropagationStats {
	var links []core.LinkPropagationStats
	p.do(func() { links = p.node.PropagationStats() })
	st := PropagationStats{Links: links}
	p.prop.mu.Lock()
	for id := range p.prop.stale {
		st.StaleLinks = append(st.StaleLinks, id)
	}
	samples := append([]time.Duration(nil), p.prop.samples...)
	p.prop.mu.Unlock()
	sort.Strings(st.StaleLinks)
	st.StalenessSamples = len(samples)
	st.StalenessP50 = durPercentile(samples, 50)
	st.StalenessP99 = durPercentile(samples, 99)
	return st
}

// durPercentile returns the pct-th percentile of the samples (nearest-rank).
func durPercentile(samples []time.Duration, pct float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(pct/100*float64(len(samples))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// StaleLinks lists the outgoing links currently hinted stale.
func (p *Peer) StaleLinks() []string {
	p.prop.mu.Lock()
	defer p.prop.mu.Unlock()
	out := make([]string, 0, len(p.prop.stale))
	for id := range p.prop.stale {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// handleUpdateHint marks an outgoing link stale (loop only). Hints arrive
// from the exporter of a pull-policy link instead of the data; any stale
// link is pullable at any time, so the mark is kept regardless of the
// locally configured policy.
func (p *Peer) handleUpdateHint(from string, h *msg.UpdateHint) {
	rule := p.outgoingRule(h.RuleID)
	if rule == nil || rule.Source != from {
		return // unknown or foreign link; ignore
	}
	p.node.NoteHintReceived(h.RuleID)
	p.prop.mu.Lock()
	sl := p.prop.stale[h.RuleID]
	if sl == nil {
		sl = &staleLink{since: time.Now()}
		p.prop.stale[h.RuleID] = sl
	}
	sl.lsn = h.LSN
	needTimer := p.maxStaleness > 0 && sl.timer == nil
	if needTimer {
		id := h.RuleID
		sl.timer = time.AfterFunc(p.maxStaleness, func() { p.deadlinePull(id) })
	}
	p.prop.mu.Unlock()
}

// deadlinePull fires when a stale link outlived MaxStaleness without a
// query pulling it: the actor loop issues the pull on its own.
func (p *Peer) deadlinePull(ruleID string) {
	cmd := command{run: func() { p.startPull(ruleID, nil) }, done: make(chan struct{})}
	select {
	case p.inbox <- cmd:
	case <-p.stopped:
	}
}

// outgoingRule resolves one of this node's outgoing (importing) rules by ID
// (loop only).
func (p *Peer) outgoingRule(id string) *cq.Rule {
	for _, r := range p.node.Outgoing() {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// startPull sends a PullRequest for one outgoing link (loop only),
// registering the optional waiter. Requests are deduplicated: while one is
// outstanding (younger than the pull timeout), further triggers only attach
// waiters.
func (p *Peer) startPull(ruleID string, waiter chan pullResult) {
	rule := p.outgoingRule(ruleID)
	if rule == nil {
		if waiter != nil {
			waiter <- pullResult{err: fmt.Errorf("peer %s: unknown outgoing rule %s", p.name, ruleID)}
		}
		return
	}
	var since uint64
	p.prop.mu.Lock()
	if sl := p.prop.stale[ruleID]; sl != nil {
		since = sl.lsn
	}
	if waiter != nil {
		p.prop.waiters[ruleID] = append(p.prop.waiters[ruleID], waiter)
	}
	at, inflight := p.prop.inflightAt[ruleID]
	if inflight && time.Since(at) < p.pullTimeout {
		p.prop.mu.Unlock()
		return // a request is already in flight; the response serves us too
	}
	p.prop.inflightAt[ruleID] = time.Now()
	p.prop.mu.Unlock()

	p.node.NotePullIssued(ruleID)
	if err := p.sendTo(rule.Source, &msg.PullRequest{RuleID: ruleID, SinceLSN: since}); err != nil {
		p.prop.mu.Lock()
		delete(p.prop.inflightAt, ruleID)
		p.prop.mu.Unlock()
		p.failPullWaiters(ruleID, err)
	}
}

// failPullWaiters resolves every registered waiter of a rule with an error.
func (p *Peer) failPullWaiters(ruleID string, err error) {
	p.prop.mu.Lock()
	ws := p.prop.waiters[ruleID]
	delete(p.prop.waiters, ruleID)
	p.prop.mu.Unlock()
	for _, w := range ws {
		w <- pullResult{err: err}
	}
}

// handlePullRequest serves an exporter-side pull (loop only): exactly the
// incremental export the importer would have received, computed from the
// durable watermark. The advanced watermark is persisted like any
// materialising session's.
func (p *Peer) handlePullRequest(from string, req *msg.PullRequest) {
	resp, err := p.node.ServePull(req)
	if err != nil {
		p.log.Warn("pull not served", "rule", req.RuleID, "from", from, "err", err)
		return
	}
	p.persistExportState()
	if err := p.sendTo(from, resp); err != nil {
		p.log.Warn("pull response send failed", "rule", req.RuleID, "to", from, "err", err)
	}
}

// handlePullResponse materialises a pulled delta (loop only): tuples go
// through the normal chase-and-commit path, the staleness record clears
// (and is sampled), waiters wake, and invalidation hints cascade through
// this node's own lazy dependent links.
func (p *Peer) handlePullResponse(from string, resp *msg.PullResponse) {
	fresh, total, err := p.node.ApplyPull(resp)
	p.prop.mu.Lock()
	delete(p.prop.inflightAt, resp.RuleID)
	ws := p.prop.waiters[resp.RuleID]
	delete(p.prop.waiters, resp.RuleID)
	p.prop.mu.Unlock()
	if err != nil {
		p.log.Warn("pull response not applied", "rule", resp.RuleID, "from", from, "err", err)
		for _, w := range ws {
			w <- pullResult{err: err}
		}
		return
	}
	p.clearStale(resp.RuleID)
	for _, w := range ws {
		w <- pullResult{fresh: total}
	}
	if total > 0 {
		changed := make([]string, 0, len(fresh))
		for rel := range fresh {
			changed = append(changed, rel)
		}
		p.cascadeHints(changed)
	}
}

// clearStale removes a link's staleness record, sampling the staleness at
// pull time (loop only).
func (p *Peer) clearStale(ruleID string) {
	p.prop.mu.Lock()
	defer p.prop.mu.Unlock()
	sl := p.prop.stale[ruleID]
	if sl == nil {
		return
	}
	delete(p.prop.stale, ruleID)
	if sl.timer != nil {
		sl.timer.Stop()
	}
	p.prop.samples = append(p.prop.samples, time.Since(sl.since))
	if len(p.prop.samples) > maxStalenessSamples {
		p.prop.samples = p.prop.samples[len(p.prop.samples)-maxStalenessSamples:]
	}
}

// cascadeHints floods out-of-session invalidation hints through this node's
// lazy incoming links whose bodies read any of the changed relations (loop
// only): a pull that materialises tuples here makes the downstream lazy
// importers stale in turn, exactly as an in-session export would have.
func (p *Peer) cascadeHints(changed []string) {
	lsn := p.node.Wrapper().LSN()
	for _, rule := range p.node.LazyDependents(changed) {
		p.node.NoteHintSent(rule.ID)
		if err := p.sendTo(rule.Target, &msg.UpdateHint{RuleID: rule.ID, LSN: lsn}); err != nil {
			p.log.Warn("cascade hint send failed", "rule", rule.ID, "to", rule.Target, "err", err)
		}
	}
}

// PullLink synchronously pulls one outgoing link's pending delta from its
// exporter, returning the number of genuinely new tuples materialised. Safe
// to call concurrently; concurrent pulls of the same link coalesce onto one
// request.
func (p *Peer) PullLink(ctx context.Context, ruleID string) (int, error) {
	waiter := make(chan pullResult, 1)
	if err := p.do(func() { p.startPull(ruleID, waiter) }); err != nil {
		return 0, err
	}
	select {
	case res := <-waiter:
		return res.fresh, res.err
	case <-ctx.Done():
		return 0, fmt.Errorf("peer %s: pull %s: %w", p.name, ruleID, ctx.Err())
	case <-p.stopped:
		return 0, fmt.Errorf("peer %s: stopped during pull of %s", p.name, ruleID)
	}
}

// CatchUp pulls every outgoing link once, returning the total number of new
// tuples materialised. Repeating until it returns 0 drives the node to the
// same fixpoint eager push would have reached (codb.Network.CatchUp does
// the network-wide iteration).
func (p *Peer) CatchUp(ctx context.Context) (int, error) {
	var ids []string
	if err := p.do(func() {
		for _, r := range p.node.Outgoing() {
			ids = append(ids, r.ID)
		}
	}); err != nil {
		return 0, err
	}
	total := 0
	for _, id := range ids {
		n, err := p.PullLink(ctx, id)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// noteDataDelivery feeds the adaptive policy's demand detector (loop only):
// a pushed data delivery on an adaptive link with no local reads since the
// previous delivery is a cold signal; coldDeliveries of them in a row
// demote the link to pull.
func (p *Peer) noteDataDelivery(ruleID string) {
	mode, _ := p.node.LinkPolicy(ruleID)
	if mode != core.PolicyAdaptive.String() {
		return
	}
	rule := p.outgoingRule(ruleID)
	if rule == nil {
		return
	}
	p.prop.mu.Lock()
	reads := p.prop.reads[ruleID]
	if reads == p.prop.lastReads[ruleID] {
		p.prop.cold[ruleID]++
	} else {
		p.prop.cold[ruleID] = 0
	}
	p.prop.lastReads[ruleID] = reads
	demote := p.prop.cold[ruleID] >= coldDeliveries && !p.prop.demandPull[ruleID]
	if demote {
		p.prop.demandPull[ruleID] = true
	}
	p.prop.mu.Unlock()
	if demote {
		p.sendLinkDemand(rule, true)
	}
}

// sendLinkDemand signals the exporter of an adaptive link which effective
// mode local demand justifies (loop only).
func (p *Peer) sendLinkDemand(rule *cq.Rule, wantPull bool) {
	var m uint8
	if wantPull {
		m = 1
	}
	if err := p.sendTo(rule.Source, &msg.LinkDemand{RuleID: rule.ID, Mode: m}); err != nil {
		p.log.Warn("link demand send failed", "rule", rule.ID, "to", rule.Source, "err", err)
	}
}

// maybePullForQuery is the concurrent read path's pre-read hook: it counts
// read demand per outgoing link and, when a stale pull link feeds one of
// the queried relations, issues a bounded synchronous pull so the query
// observes fresh data (stale on timeout). Runs on the reader's goroutine.
func (p *Peer) maybePullForQuery(q *cq.Query) {
	rp := p.readPath
	rels := q.Relations()
	rp.mu.RLock()
	outgoing := rp.outgoing
	rp.mu.RUnlock()
	var touched []*cq.Rule
	for _, rule := range outgoing {
		for _, h := range rule.HeadRelations() {
			if containsStr(rels, h) {
				touched = append(touched, rule)
				break
			}
		}
	}
	if len(touched) == 0 {
		return
	}
	var stale []*cq.Rule
	var promote []*cq.Rule
	p.prop.mu.Lock()
	for _, rule := range touched {
		p.prop.reads[rule.ID]++
		p.prop.cold[rule.ID] = 0
		if p.prop.stale[rule.ID] != nil {
			stale = append(stale, rule)
		}
		if p.prop.demandPull[rule.ID] {
			// The link is hot again: promote it back to push.
			p.prop.demandPull[rule.ID] = false
			promote = append(promote, rule)
		}
	}
	p.prop.mu.Unlock()
	if len(stale) == 0 && len(promote) == 0 {
		return
	}
	waiters := make([]chan pullResult, len(stale))
	if err := p.do(func() {
		for _, rule := range promote {
			p.sendLinkDemand(rule, false)
		}
		for i, rule := range stale {
			waiters[i] = make(chan pullResult, 1)
			p.startPull(rule.ID, waiters[i])
		}
	}); err != nil {
		return
	}
	if len(waiters) == 0 {
		return
	}
	deadline := time.NewTimer(p.pullTimeout)
	defer deadline.Stop()
	for _, w := range waiters {
		select {
		case <-w:
		case <-deadline.C:
			return // serve stale: the pull completes in the background
		case <-p.stopped:
			return
		}
	}
}

func containsStr(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
