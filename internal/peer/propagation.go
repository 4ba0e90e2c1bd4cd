package peer

import (
	"context"
	"fmt"
	"slices"
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

// link is the importer's record of one outgoing link (a rule this peer
// imports through): everything the propagation runtime knows about it.
// There is one per outgoing rule; syncLinks creates and prunes them when
// the rule set moves, and a redefined rule keeps its record.
type link struct {
	rule *cq.Rule
	// stale is the record of a hinted, not-yet-pulled link (nil while the
	// link is fresh).
	stale *staleLink
	// Adaptive demand: reads counts local reads touching the link,
	// lastReads and cold detect consecutive unread deliveries, demandPull
	// mirrors the last LinkDemand sent to the exporter.
	reads, lastReads uint64
	cold             int
	demandPull       bool
	// pulling is the waiter of the link's in-flight pull (loop only).
	pulling *waiter
}

// staleLink is the staleness record of one hinted, not-yet-pulled link.
type staleLink struct {
	since time.Time // first unserved hint arrival (staleness clock)
	// hints counts the hints received; pulls maps each scoped session that
	// requested the link from this peer to hints at that moment. A session
	// clears the record only when none arrived after it requested the link.
	hints int
	pulls map[string]int
	timer *time.Timer // the MaxStaleness deadline; nil while none is armed
}

// propState is the peer's propagation-policy state. The actor loop owns all
// transitions and is the only writer of the links map; the mutex exists
// because the concurrent read path consults staleness and records read
// demand off the loop.
type propState struct {
	mu    sync.Mutex
	links map[string]*link // by outgoing rule ID
	// samples are staleness-at-pull measurements (bounded).
	samples []time.Duration
}

func newPropState() *propState {
	return &propState{links: make(map[string]*link)}
}

// syncLinks makes the link records match the node's outgoing rules (loop
// only). The record of a link that is gone goes, with its deadline timer.
func (p *Peer) syncLinks(outgoing []*cq.Rule) {
	p.prop.mu.Lock()
	defer p.prop.mu.Unlock()
	links := make(map[string]*link, len(outgoing))
	for _, r := range outgoing {
		l := p.prop.links[r.ID]
		if l == nil {
			l = &link{}
		}
		l.rule = r
		links[r.ID] = l
	}
	for id, l := range p.prop.links {
		if links[id] == nil && l.stale != nil && l.stale.timer != nil {
			l.stale.timer.Stop()
		}
	}
	p.prop.links = links
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

// SetLinkPolicy configures (or reconfigures) one rule's propagation policy
// on the node (core.Node.SetLinkPolicy): an unknown rule ID is accepted and
// takes effect when the rule is declared.
func (p *Peer) SetLinkPolicy(ruleID, mode, filter string) error {
	var err error
	if derr := p.do(func() { err = p.node.SetLinkPolicy(ruleID, mode, filter) }); derr != nil {
		return derr
	}
	return err
}

// PropagationStats snapshots the peer's propagation counters and staleness
// quantiles.
func (p *Peer) PropagationStats() PropagationStats {
	var links []core.LinkPropagationStats
	p.do(func() { links = p.node.PropagationStats() })
	st := PropagationStats{Links: links, StaleLinks: p.StaleLinks()}
	p.prop.mu.Lock()
	samples := append([]time.Duration(nil), p.prop.samples...)
	p.prop.mu.Unlock()
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
	var out []string
	for id, l := range p.prop.links {
		if l.stale != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// handleUpdateHint marks an outgoing link stale (loop only). Hints arrive
// from the exporter of a pull-policy link instead of the data; any stale
// link is pullable at any time, so the mark is kept regardless of the
// locally configured policy.
func (p *Peer) handleUpdateHint(from string, h *msg.UpdateHint) {
	l := p.prop.links[h.RuleID]
	if l == nil || l.rule.Source != from {
		return // unknown or foreign link; ignore
	}
	p.node.NoteHintReceived(h.RuleID)
	p.prop.mu.Lock()
	if l.stale == nil {
		l.stale = &staleLink{since: time.Now()}
	}
	l.stale.hints++
	if l.stale.timer == nil {
		p.armDeadline(h.RuleID, l.stale)
	}
	p.prop.mu.Unlock()
}

// armDeadline starts a stale link's MaxStaleness timer, when the peer has a
// deadline (caller holds prop.mu).
func (p *Peer) armDeadline(ruleID string, sl *staleLink) {
	if p.maxStaleness > 0 {
		sl.timer = time.AfterFunc(p.maxStaleness, func() { p.deadlinePull(ruleID, sl) })
	}
}

// deadlinePull fires when a stale link outlived MaxStaleness without a
// query pulling it: the actor loop issues the pull on its own, unless the
// record it was armed for has been cleared meanwhile.
func (p *Peer) deadlinePull(ruleID string, sl *staleLink) {
	p.events.put(func() {
		p.prop.mu.Lock()
		l := p.prop.links[ruleID]
		current := l != nil && l.stale == sl
		if current {
			sl.timer = nil
		}
		p.prop.mu.Unlock()
		if current {
			p.startPull([]string{ruleID})
		}
	})
}

// lazyOutgoing lists the outgoing links this peer pulls rather than has
// pushed to it: those configured pull, adaptive ones it demoted, and any
// hinted stale (loop only).
func (p *Peer) lazyOutgoing() []string {
	var ids []string
	p.prop.mu.Lock()
	defer p.prop.mu.Unlock()
	for _, r := range p.node.Outgoing() {
		l := p.prop.links[r.ID]
		if p.node.LinkMode(r.ID) == core.PolicyPull || l != nil && (l.demandPull || l.stale != nil) {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// startPull makes sure every given outgoing link has a pull in flight —
// one new scoped session covers those that have none — and returns the
// waiters of the pulls covering them (loop only). A trigger for a link
// already being pulled — a read, the staleness deadline, PullLink, CatchUp
// — waits on that pull instead of starting another. An id that is not an
// outgoing link is an error, but the others are pulled all the same.
func (p *Peer) startPull(ids []string) ([]*waiter, error) {
	var pulls []*waiter
	var idle, unknown []string
	for _, id := range ids {
		switch l := p.prop.links[id]; {
		case l == nil:
			unknown = append(unknown, id)
		case l.pulling == nil:
			idle = append(idle, id)
		case !slices.Contains(pulls, l.pulling):
			pulls = append(pulls, l.pulling)
		}
	}
	var err error
	if len(unknown) > 0 {
		err = fmt.Errorf("peer %s: cannot pull %v: not outgoing links", p.name, unknown)
	}
	if len(idle) == 0 {
		return pulls, err
	}
	sid := msg.NewSID(p.name)
	res, serr := p.node.StartPull(sid, idle)
	if serr != nil {
		return pulls, serr
	}
	w := newWaiter()
	w.rules = idle
	for _, id := range idle {
		p.prop.links[id].pulling = w
	}
	p.waiting[sid] = w
	p.dispatch(res) // may finish the session already: register it first
	return append(pulls, w), err
}

// noteScopedRequests marks the stale links a scoped session is about to
// request from their exporters (loop only). Every scoped session pulls the
// links it requests, whether this peer started it or forwards it.
func (p *Peer) noteScopedRequests(out []core.Outbound) {
	for _, o := range out {
		req, ok := o.Payload.(*msg.SessionRequest)
		if !ok || req.Kind != msg.KindScoped {
			continue
		}
		p.prop.mu.Lock()
		for _, d := range req.Rules {
			if l := p.prop.links[d.ID]; l != nil && l.stale != nil {
				sl := l.stale
				if sl.pulls == nil {
					sl.pulls = make(map[string]int)
				}
				sl.pulls[req.SID] = sl.hints
			}
		}
		p.prop.mu.Unlock()
	}
}

// settlePulls clears the staleness records of the links a finished scoped
// session requested, each sampled for the staleness quantiles (loop only).
// A record stays when the session wrote off messages here, or when a hint
// arrived after the session requested the link — the exporter may have
// committed past what it shipped.
func (p *Peer) settlePulls(f core.Finished) {
	p.prop.mu.Lock()
	defer p.prop.mu.Unlock()
	for id, l := range p.prop.links {
		sl := l.stale
		if sl == nil {
			continue
		}
		hints, ok := sl.pulls[f.SID]
		if !ok {
			continue
		}
		delete(sl.pulls, f.SID)
		if f.Report.CompensatedLost > 0 || sl.hints != hints {
			if sl.timer == nil {
				p.armDeadline(id, sl)
			}
			continue
		}
		l.stale = nil
		if sl.timer != nil {
			sl.timer.Stop()
		}
		p.prop.samples = append(p.prop.samples, time.Since(sl.since))
		if len(p.prop.samples) > maxStalenessSamples {
			p.prop.samples = p.prop.samples[len(p.prop.samples)-maxStalenessSamples:]
		}
	}
}

// awaitPulls waits for the given pulls and sums the tuples they
// materialised at this peer. A pull that wrote off messages — its exporter
// was unreachable, or a pipe failed under it — is an error: the links it
// covered may still lag.
func (p *Peer) awaitPulls(ctx context.Context, pulls []*waiter) (int, error) {
	total := 0
	for _, ps := range pulls {
		select {
		case <-ps.done:
		case <-ctx.Done():
			return total, fmt.Errorf("peer %s: pull of %v: %w", p.name, ps.rules, ctx.Err())
		case <-p.stopped:
			return total, fmt.Errorf("peer %s: pull of %v: %w", p.name, ps.rules, ErrStopped)
		}
		if lost := ps.rep.CompensatedLost; lost > 0 {
			return total, fmt.Errorf("peer %s: pull of %v wrote off %d undeliverable messages", p.name, ps.rules, lost)
		}
		total += ps.rep.NewTuples
	}
	return total, nil
}

// pull starts pulls of the links ids names (evaluated on the actor loop)
// and waits for them.
func (p *Peer) pull(ctx context.Context, ids func() []string) (int, error) {
	var pulls []*waiter
	var err error
	if derr := p.do(func() { pulls, err = p.startPull(ids()) }); derr != nil {
		return 0, derr
	}
	if err != nil {
		return 0, err
	}
	return p.awaitPulls(ctx, pulls)
}

// PullLink synchronously pulls one outgoing link: a scoped session over the
// link, which brings this node level with everything upstream of it (the
// exporter forwards the pull to its own relevant links). It returns the
// number of new tuples materialised here. Safe to call concurrently;
// concurrent pulls of the same link share one session.
func (p *Peer) PullLink(ctx context.Context, ruleID string) (int, error) {
	return p.pull(ctx, func() []string { return []string{ruleID} })
}

// CatchUp pulls every outgoing link — one scoped session over those not
// already being pulled — returning the number of new tuples materialised
// here. codb.Network.CatchUp repeats it network-wide until nothing commits.
func (p *Peer) CatchUp(ctx context.Context) (int, error) {
	return p.pull(ctx, func() []string {
		ids := make([]string, 0, len(p.node.Outgoing()))
		for _, r := range p.node.Outgoing() {
			ids = append(ids, r.ID)
		}
		return ids
	})
}

// noteDataDelivery feeds the adaptive policy's demand detector (loop only):
// a pushed data delivery on an adaptive link with no local reads since the
// previous delivery is a cold signal; coldDeliveries of them in a row
// demote the link to pull.
func (p *Peer) noteDataDelivery(ruleID string) {
	if p.node.LinkMode(ruleID) != core.PolicyAdaptive {
		return
	}
	l := p.prop.links[ruleID]
	if l == nil {
		return
	}
	p.prop.mu.Lock()
	if l.reads == l.lastReads {
		l.cold++
	} else {
		l.cold = 0
	}
	l.lastReads = l.reads
	demote := l.cold >= coldDeliveries && !l.demandPull
	if demote {
		l.demandPull = true
	}
	p.prop.mu.Unlock()
	if demote {
		p.sendLinkDemand(l.rule, true)
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

// maybePullForRead is the concurrent read path's pre-read hook: it counts
// read demand on each outgoing link a local read touches and, when one of
// them is a stale pull link, pulls it and waits up to the pull timeout so
// the read observes fresh data (stale on timeout or a failed pull). Runs
// on the reader's goroutine.
func (p *Peer) maybePullForRead(touched []*cq.Rule) {
	var stale []string
	var promote []*cq.Rule
	p.prop.mu.Lock()
	for _, rule := range touched {
		l := p.prop.links[rule.ID]
		if l == nil {
			continue // the rule set moved under the read
		}
		l.reads++
		l.cold = 0
		if l.stale != nil {
			stale = append(stale, rule.ID)
		}
		if l.demandPull {
			// The link is hot again: promote it back to push.
			l.demandPull = false
			promote = append(promote, rule)
		}
	}
	p.prop.mu.Unlock()
	if len(stale) == 0 && len(promote) == 0 {
		return
	}
	var pulls []*waiter
	if err := p.do(func() {
		for _, rule := range promote {
			p.sendLinkDemand(rule, false)
		}
		if len(stale) > 0 {
			pulls, _ = p.startPull(stale) // a link removed meanwhile is skipped
		}
	}); err != nil || len(pulls) == 0 {
		return
	}
	// On timeout the pull completes in the background.
	ctx, cancel := context.WithTimeout(context.Background(), p.pullTimeout)
	defer cancel()
	p.awaitPulls(ctx, pulls)
}
