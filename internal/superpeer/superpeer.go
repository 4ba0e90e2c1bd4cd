// Package superpeer implements the paper's §4 experiment coordinator: a
// peer with additional functionality that reads a coordination-rules file,
// broadcasts it to every peer (re-broadcasts change the topology at
// runtime), triggers global updates on chosen nodes, and collects and
// aggregates the per-node statistics into a final report.
package superpeer

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/transport"
)

// SuperPeer drives a coDB network.
type SuperPeer struct {
	peer *peer.Peer
	name string
	addr string

	mu       sync.Mutex
	version  int
	cfg      *config.Config
	reports  map[string]map[string][]msg.UpdateReport // collectID -> node -> reports
	waiters  map[string]chan msg.StatsReport
	finished map[string]chan msg.StatsReport // update SID -> UpdateFinished feed
}

// Options configures a super-peer.
type Options struct {
	// Name is the super-peer's node name (default "super").
	Name string
	// Transport connects it to the network.
	Transport transport.Transport
	// Directory seeds dial addresses (TCP deployments).
	Directory map[string]string
	// Addr is this super-peer's own dial-back address, included in stats
	// requests so peers without a pipe can reply (TCP deployments).
	Addr string
}

// New starts a super-peer. It participates in the network as a rule-less
// mediator node.
func New(opts Options) (*SuperPeer, error) {
	name := opts.Name
	if name == "" {
		name = "super"
	}
	sp := &SuperPeer{
		name:     name,
		addr:     opts.Addr,
		reports:  make(map[string]map[string][]msg.UpdateReport),
		waiters:  make(map[string]chan msg.StatsReport),
		finished: make(map[string]chan msg.StatsReport),
	}
	p, err := peer.New(peer.Options{
		Name:      name,
		Transport: opts.Transport,
		Wrapper:   core.NewMediatorWrapper(relation.NewSchema()),
		Directory: opts.Directory,
	})
	if err != nil {
		return nil, err
	}
	sp.peer = p
	p.SetStatsSink(sp.sink)
	return sp, nil
}

// Peer exposes the underlying peer (pipes, discovery).
func (sp *SuperPeer) Peer() *peer.Peer { return sp.peer }

// Stop shuts the super-peer down.
func (sp *SuperPeer) Stop() { sp.peer.Stop() }

// sink consumes StatsReport and UpdateFinished traffic. It must not call
// back into the peer synchronously.
func (sp *SuperPeer) sink(rep msg.StatsReport) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if byNode, ok := sp.reports[rep.ID]; ok {
		byNode[rep.Node] = append(byNode[rep.Node], rep.Reports...)
	}
	if ch, ok := sp.waiters[rep.ID]; ok {
		select {
		case ch <- rep:
		default:
		}
	}
	if ch, ok := sp.finished[rep.ID]; ok {
		select {
		case ch <- rep:
		default:
		}
	}
}

// SetConfig installs a configuration for later broadcasts.
func (sp *SuperPeer) SetConfig(cfg *config.Config) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.cfg = cfg
	if cfg.Version > sp.version {
		sp.version = cfg.Version
	}
}

// Config returns the current configuration (nil if unset).
func (sp *SuperPeer) Config() *config.Config {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.cfg
}

// Broadcast ships the current configuration to every known peer; each peer
// drops old rules/pipes and installs the new ones (paper §4). Every
// successful call bumps the version so re-broadcasts reconfigure at
// runtime; a call without a configuration fails without burning a version
// (peers dedup by version, so a burnt number would make the next genuine
// broadcast look stale to anyone who heard it second-hand).
func (sp *SuperPeer) Broadcast() error {
	sp.mu.Lock()
	if sp.cfg == nil {
		sp.mu.Unlock()
		return fmt.Errorf("superpeer: no configuration set")
	}
	cfg := sp.cfg
	sp.version++
	version := sp.version
	sp.mu.Unlock()
	sp.peer.SetDirectory(cfg.Directory())
	text := cfg.String()
	// The flood never loops back here, so plant the snapshot joiners get.
	sp.peer.SetRulesSnapshot(version, text)
	sp.peer.Broadcast(&msg.RulesBroadcast{Version: version, Text: text})
	return nil
}

// AdmitJoin admits a node into the live network through the super-peer's
// own peer: directory delta flooded, rules + directory handed to the
// joiner. Returns the epoch assigned to the joiner.
func (sp *SuperPeer) AdmitJoin(node, addr string) (uint64, error) {
	return sp.peer.AdmitJoin(node, addr)
}

// RemoveNode floods a tombstone for a departing node (coordinated leave).
func (sp *SuperPeer) RemoveNode(node string) error {
	return sp.peer.RemoveNode(node)
}

// StartUpdate commands a node to initiate a global update and waits for its
// completion report.
func (sp *SuperPeer) StartUpdate(ctx context.Context, origin string) (msg.UpdateReport, error) {
	sid := msg.NewSID(sp.name)
	ch := make(chan msg.StatsReport, 1)
	sp.mu.Lock()
	sp.finished[sid] = ch
	sp.mu.Unlock()
	defer func() {
		sp.mu.Lock()
		delete(sp.finished, sid)
		sp.mu.Unlock()
	}()
	if err := sp.peer.SendTo(origin, &msg.StartUpdateCmd{SID: sid, ReplyTo: sp.name}); err != nil {
		return msg.UpdateReport{}, err
	}
	select {
	case rep := <-ch:
		if len(rep.Reports) == 0 {
			return msg.UpdateReport{}, fmt.Errorf("superpeer: empty completion report from %s", origin)
		}
		return rep.Reports[0], nil
	case <-ctx.Done():
		return msg.UpdateReport{}, fmt.Errorf("superpeer: update at %s: %w", origin, ctx.Err())
	}
}

// CollectStats floods a statistics request and gathers per-node reports
// until expect nodes responded or the context expires. It returns whatever
// arrived.
func (sp *SuperPeer) CollectStats(ctx context.Context, expect int) (map[string][]msg.UpdateReport, error) {
	id := msg.NewSID(sp.name)
	ch := make(chan msg.StatsReport, expect+8)
	sp.mu.Lock()
	sp.reports[id] = make(map[string][]msg.UpdateReport)
	sp.waiters[id] = ch
	sp.mu.Unlock()
	defer func() {
		sp.mu.Lock()
		delete(sp.waiters, id)
		sp.mu.Unlock()
	}()

	sp.peer.Broadcast(&msg.StatsRequest{ID: id, ReplyTo: sp.name, Addr: sp.addr})

	seen := make(map[string]bool)
	for len(seen) < expect {
		select {
		case rep := <-ch:
			seen[rep.Node] = true
		case <-ctx.Done():
			sp.mu.Lock()
			out := sp.reports[id]
			delete(sp.reports, id)
			sp.mu.Unlock()
			return out, fmt.Errorf("superpeer: collected %d of %d: %w", len(seen), expect, ctx.Err())
		}
	}
	sp.mu.Lock()
	out := sp.reports[id]
	delete(sp.reports, id)
	sp.mu.Unlock()
	return out, nil
}

// Aggregate is the final statistical report the paper's super-peer produces
// for one session across all nodes.
type Aggregate struct {
	SID          string
	Origin       string
	Kind         msg.Kind
	WallNanos    int64 // max end - min start across nodes
	Nodes        int
	TotalMsgs    int
	TotalBytes   int
	TotalTuples  int
	NewTuples    int
	LongestPath  int
	MsgsPerRule  map[string]int
	BytesPerRule map[string]int
}

// AggregateSessions merges per-node reports into per-session aggregates,
// sorted by session ID.
func AggregateSessions(byNode map[string][]msg.UpdateReport) []Aggregate {
	perSID := make(map[string]*Aggregate)
	starts := make(map[string]int64)
	ends := make(map[string]int64)
	for _, reps := range byNode {
		for _, rep := range reps {
			a := perSID[rep.SID]
			if a == nil {
				a = &Aggregate{
					SID:          rep.SID,
					Origin:       rep.Origin,
					Kind:         rep.Kind,
					MsgsPerRule:  make(map[string]int),
					BytesPerRule: make(map[string]int),
				}
				perSID[rep.SID] = a
				starts[rep.SID] = rep.StartUnixNano
				ends[rep.SID] = rep.EndUnixNano
			}
			a.Nodes++
			if rep.StartUnixNano < starts[rep.SID] {
				starts[rep.SID] = rep.StartUnixNano
			}
			if rep.EndUnixNano > ends[rep.SID] {
				ends[rep.SID] = rep.EndUnixNano
			}
			a.TotalMsgs += rep.SentMsgs
			a.TotalBytes += rep.SentBytes
			a.NewTuples += rep.NewTuples
			if rep.LongestPath > a.LongestPath {
				a.LongestPath = rep.LongestPath
			}
			for rule, n := range rep.MsgsPerRule {
				a.MsgsPerRule[rule] += n
			}
			for rule, n := range rep.BytesPerRule {
				a.BytesPerRule[rule] += n
			}
			for _, n := range rep.TuplesPerRule {
				a.TotalTuples += n
			}
		}
	}
	out := make([]Aggregate, 0, len(perSID))
	for sid, a := range perSID {
		a.WallNanos = ends[sid] - starts[sid]
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// Render formats aggregates as the paper's "final statistical report".
func Render(aggs []Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-8s %-6s %9s %8s %10s %8s %8s %7s\n",
		"session", "origin", "kind", "wall(ms)", "msgs", "bytes", "tuples", "new", "maxpath")
	for _, a := range aggs {
		fmt.Fprintf(&b, "%-28s %-8s %-6s %9.2f %8d %10d %8d %8d %7d\n",
			trunc(a.SID, 28), a.Origin, a.Kind,
			float64(a.WallNanos)/float64(time.Millisecond),
			a.TotalMsgs, a.TotalBytes, a.TotalTuples, a.NewTuples, a.LongestPath)
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
