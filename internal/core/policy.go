package core

import (
	"fmt"
	"sort"

	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// PolicyMode selects how an incoming link (Source == Self) propagates
// committed deltas to its importer.
type PolicyMode uint8

const (
	// PolicyPush is the eager default: every update session evaluates the
	// link and ships the frontier bindings immediately.
	PolicyPush PolicyMode = iota
	// PolicyPull makes the link lazy: update sessions flood only a cheap
	// UpdateHint (the exporter's LSN advanced); the importer pulls the
	// actual delta on demand with a scoped session over the link (StartPull),
	// which exports from the link's durable watermark like any session.
	PolicyPull
	// PolicyAdaptive flips the link between push and pull based on the
	// importer's demand signal (LinkDemand): cold links (no reads since the
	// last hint) demote to pull, hot links promote back to push.
	PolicyAdaptive
	// PolicyFilter behaves like push but requires a predicate filter over
	// the rule's frontier variables; bindings failing it are dropped at the
	// exporter and counted as suppressed. (A filter predicate can also be
	// combined with pull and adaptive modes.)
	PolicyFilter
)

// String names the mode in the configuration vocabulary.
func (m PolicyMode) String() string {
	switch m {
	case PolicyPush:
		return "push"
	case PolicyPull:
		return "pull"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyFilter:
		return "filter"
	default:
		return fmt.Sprintf("policy(%d)", uint8(m))
	}
}

// ParsePolicyMode parses a configuration string into a PolicyMode.
func ParsePolicyMode(s string) (PolicyMode, error) {
	switch s {
	case "push", "":
		return PolicyPush, nil
	case "pull":
		return PolicyPull, nil
	case "adaptive":
		return PolicyAdaptive, nil
	case "filter":
		return PolicyFilter, nil
	default:
		return PolicyPush, fmt.Errorf("core: unknown propagation policy %q (want push, pull, adaptive or filter)", s)
	}
}

// linkPolicy is one rule's configured propagation policy. Both endpoints of
// a link hold the same configuration: the exporter enforces it (hint instead
// of data, filter predicates), the importer uses it to drive pulls and the
// adaptive demand signal.
type linkPolicy struct {
	mode      PolicyMode
	filter    []cq.Comparison
	filterSrc string
	frontier  []string // rule frontier, the filter's variable layout
	// demandPull is the adaptive mode's current decision (exporter side,
	// driven by LinkDemand messages from the importer). Adaptive links
	// start out pushing.
	demandPull bool
}

// propStat accumulates one rule's propagation counters. Exporter-side and
// importer-side fields live in the same struct; each endpoint only writes
// its own half. A pull is a scoped session: its exports count as pulls
// served and bytes pulled, what it stages as pulled tuples.
type propStat struct {
	hintsSent   uint64
	pullsServed uint64
	bytesPushed uint64
	bytesPulled uint64
	// bytesSuppressed / suppressedBindings count filter drops (exporter).
	bytesSuppressed    uint64
	suppressedBindings uint64
	// Importer side.
	hintsReceived uint64
	pullsIssued   uint64
	pulledTuples  uint64
}

// LinkPropagationStats is the public snapshot of one link's propagation
// counters.
type LinkPropagationStats struct {
	RuleID string `json:"rule"`
	// Policy is the configured mode; Effective is what the exporter is
	// doing right now (adaptive links flip between push and pull).
	Policy    string `json:"policy"`
	Effective string `json:"effective"`
	Filter    string `json:"filter,omitempty"`

	HintsSent          uint64 `json:"hints_sent"`
	PullsServed        uint64 `json:"pulls_served"`
	BytesPushed        uint64 `json:"bytes_pushed"`
	BytesPulled        uint64 `json:"bytes_pulled"`
	BytesSuppressed    uint64 `json:"bytes_suppressed"`
	SuppressedBindings uint64 `json:"suppressed_bindings"`

	HintsReceived uint64 `json:"hints_received"`
	PullsIssued   uint64 `json:"pulls_issued"`
	PulledTuples  uint64 `json:"pulled_tuples"`
}

// SetLinkPolicy configures the propagation policy of one rule known to this
// node. filterSrc is an optional comma-separated comparison list over the
// rule's frontier variables ("" = no filter); mode "filter" requires one.
func (n *Node) SetLinkPolicy(ruleID, mode, filterSrc string) error {
	rs, ok := n.rules[ruleID]
	if !ok {
		return fmt.Errorf("core: cannot set policy: unknown rule %s", ruleID)
	}
	m, err := ParsePolicyMode(mode)
	if err != nil {
		return err
	}
	if m == PolicyFilter && filterSrc == "" {
		return fmt.Errorf("core: policy filter for rule %s needs a predicate", ruleID)
	}
	frontier := rs.rule.Frontier()
	var cmps []cq.Comparison
	if filterSrc != "" {
		cmps, err = cq.ParseFilter(filterSrc)
		if err != nil {
			return err
		}
		for _, c := range cmps {
			for _, v := range c.Vars(nil) {
				if !containsStr(frontier, v) {
					return fmt.Errorf("core: rule %s: filter variable %s is not in the frontier %v", ruleID, v, frontier)
				}
			}
		}
	}
	if n.policies == nil {
		n.policies = make(map[string]*linkPolicy)
	}
	n.policies[ruleID] = &linkPolicy{mode: m, filter: cmps, filterSrc: filterSrc, frontier: frontier}
	return nil
}

// LinkPolicy reports a rule's configured policy mode and filter source
// ("push", "" when never configured).
func (n *Node) LinkPolicy(ruleID string) (mode, filter string) {
	if pol := n.policies[ruleID]; pol != nil {
		return pol.mode.String(), pol.filterSrc
	}
	return PolicyPush.String(), ""
}

// pullEffective reports whether exports through the rule currently go lazy:
// the policy wants pull, configured or by adaptive demand.
func (n *Node) pullEffective(rule *cq.Rule) bool {
	pol := n.policies[rule.ID]
	if pol == nil {
		return false
	}
	switch pol.mode {
	case PolicyPull:
		return true
	case PolicyAdaptive:
		return pol.demandPull
	}
	return false
}

// propStatFor returns (creating) one rule's counter record.
func (n *Node) propStatFor(ruleID string) *propStat {
	st := n.propStats[ruleID]
	if st == nil {
		if n.propStats == nil {
			n.propStats = make(map[string]*propStat)
		}
		st = &propStat{}
		n.propStats[ruleID] = st
	}
	return st
}

// applyFilter drops the bindings failing the rule's filter predicate,
// counting them (and their encoded volume) as suppressed.
func (n *Node) applyFilter(rule *cq.Rule, bindings []relation.Tuple) []relation.Tuple {
	pol := n.policies[rule.ID]
	if pol == nil || len(pol.filter) == 0 {
		return bindings
	}
	kept := bindings[:0:0]
	dropped, droppedBytes := 0, 0
	for _, b := range bindings {
		if cq.EvalComparisons(pol.filter, pol.frontier, b) {
			kept = append(kept, b)
		} else {
			dropped++
			droppedBytes += b.EncodedLen()
		}
	}
	if dropped > 0 {
		st := n.propStatFor(rule.ID)
		st.suppressedBindings += uint64(dropped)
		st.bytesSuppressed += uint64(droppedBytes)
	}
	return kept
}

// sendHint floods the pull link's cheap invalidation notice: the exporter's
// commit horizon advanced, pull when the data matters. One hint per session
// per link; hints are control traffic outside the termination detector's
// scope (never DS-counted).
func (n *Node) sendHint(s *session, rule *cq.Rule, to string, r *Result) {
	if s.hinted == nil {
		s.hinted = make(map[string]bool)
	}
	if s.hinted[rule.ID] {
		return
	}
	s.hinted[rule.ID] = true
	r.send(to, &msg.UpdateHint{RuleID: rule.ID, LSN: n.cfg.Wrapper.LSN()})
	n.propStatFor(rule.ID).hintsSent++
}

// hintStale is a scoped session's share of the lazy-link protocol: the
// tuples it stages here make every pull-effective incoming link that reads
// them stale, except the links the session itself carries data down.
func (n *Node) hintStale(s *session, fresh map[string][]relation.Tuple, r *Result) {
	for _, in := range n.Incoming() {
		if _, active := s.activeIncoming[in.ID]; active || !n.pullEffective(in) {
			continue
		}
		for _, rel := range in.BodyRelations() {
			if len(fresh[rel]) > 0 {
				n.sendHint(s, in, in.Target, r)
				break
			}
		}
	}
}

// HandleLinkDemand applies the importer's demand signal to an adaptive
// link: wantPull demotes the link to lazy hints, !wantPull promotes it back
// to eager push. Ignored for non-adaptive policies (the configuration wins).
func (n *Node) HandleLinkDemand(ruleID string, wantPull bool) {
	pol := n.policies[ruleID]
	if pol == nil || pol.mode != PolicyAdaptive {
		return
	}
	pol.demandPull = wantPull
}

// NoteHintReceived counts an importer-side hint arrival.
func (n *Node) NoteHintReceived(ruleID string) { n.propStatFor(ruleID).hintsReceived++ }

// PropagationStats snapshots the per-link propagation counters, sorted by
// rule ID. Every rule with a configured policy or recorded traffic appears.
func (n *Node) PropagationStats() []LinkPropagationStats {
	ids := make(map[string]bool, len(n.policies)+len(n.propStats))
	for id := range n.policies {
		ids[id] = true
	}
	for id := range n.propStats {
		ids[id] = true
	}
	out := make([]LinkPropagationStats, 0, len(ids))
	for id := range ids {
		ls := LinkPropagationStats{RuleID: id, Policy: PolicyPush.String(), Effective: PolicyPush.String()}
		if pol := n.policies[id]; pol != nil {
			ls.Policy = pol.mode.String()
			ls.Filter = pol.filterSrc
		}
		if rs, ok := n.rules[id]; ok {
			if rs.rule.Source == n.cfg.Self {
				// Exporter side: the gate actually applied, including the
				// adaptive-demand check.
				if n.pullEffective(rs.rule) {
					ls.Effective = PolicyPull.String()
				}
			} else if pol := n.policies[id]; pol != nil && pol.mode == PolicyPull {
				// Importer side: a configured pull policy is what this node
				// acts on (stale marks, read-triggered pulls); adaptive
				// demand is exporter-side state it cannot see, so adaptive
				// links report the configured default.
				ls.Effective = PolicyPull.String()
			}
		}
		if st := n.propStats[id]; st != nil {
			ls.HintsSent = st.hintsSent
			ls.PullsServed = st.pullsServed
			ls.BytesPushed = st.bytesPushed
			ls.BytesPulled = st.bytesPulled
			ls.BytesSuppressed = st.bytesSuppressed
			ls.SuppressedBindings = st.suppressedBindings
			ls.HintsReceived = st.hintsReceived
			ls.PullsIssued = st.pullsIssued
			ls.PulledTuples = st.pulledTuples
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RuleID < out[j].RuleID })
	return out
}

// ExportTotals is the cumulative per-node roll-up of the session-report
// export counters: the reports ring is bounded (Config.MaxReports), so
// summing Reports() undercounts on long-lived peers — these totals never
// reset while the process lives.
type ExportTotals struct {
	Sessions           int `json:"sessions"`
	ExportsFull        int `json:"exports_full"`
	ExportsIncremental int `json:"exports_incremental"`
	ExportsFallback    int `json:"exports_fallback"`
	SkippedByWatermark int `json:"skipped_by_watermark"`
	IncrementalMsgs    int `json:"incremental_msgs"`
}

// ExportTotals returns the cumulative export counters accumulated across
// every completed session at this node.
func (n *Node) ExportTotals() ExportTotals { return n.totals }
