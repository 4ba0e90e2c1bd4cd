// Runtime membership: the epoch-stamped peer directory and the wire-level
// join/leave protocol (msg.JoinRequest / JoinAccept / Leave /
// DirectoryDelta).
//
// Every directory entry carries the epoch under which its node was last
// admitted. Precedence is last-epoch-wins: a higher epoch always replaces a
// lower one, and within an epoch a tombstone beats a live entry — so a
// coordinated leave (tombstone at the leaver's own epoch) removes the node,
// while a later rejoin (admitted at epoch+1) resurrects it, possibly at a
// new address. Epoch 0 is the static bootstrap: Options.Directory seeds and
// configuration files, which fill gaps but never override runtime facts.
// The directory is the listed part of the member table (lifecycle.go); what
// a change of fact does to the pipe and the in-flight sessions is the
// lifecycle's evTombstone and evMoved.
//
// Deltas are star-flooded: the peer that admits or removes a node sends the
// delta directly to every live peer it knows; receivers apply it locally
// and never forward, so there are no gossip loops and no delta storms.
package peer

import (
	"context"
	"fmt"
	"sort"

	"codb/internal/msg"
)

// member returns a copy of the node's member record (the zero member when
// there is none).
func (p *Peer) member(node string) member {
	if m := p.members[node]; m != nil {
		return *m
	}
	return member{}
}

// applyDirEntry merges one membership fact into the directory, returning
// whether it changed anything. Facts about this node itself only ever
// advance selfEpoch (a peer never tombstones itself from hearsay).
func (p *Peer) applyDirEntry(e msg.DirEntry) bool {
	if e.Node == p.name {
		if !e.Deleted && e.Epoch > p.selfEpoch {
			p.selfEpoch = e.Epoch
		}
		return false
	}
	cur := p.member(e.Node)
	switch {
	case !cur.listed:
		// First fact about the node.
	case e.Epoch > cur.epoch:
		// A newer incarnation wins outright, including tombstones.
	case e.Epoch == cur.epoch && e.Deleted && !cur.tombstoned:
		// A leave tombstones the node's own (current) incarnation.
	case e.Epoch == cur.epoch && e.Deleted == cur.tombstoned && cur.addr == "" && e.Addr != "":
		// Same-epoch refinement: learn a missing dial address.
	default:
		return false
	}
	m := p.members[e.Node]
	if m == nil {
		m = &member{}
		p.members[e.Node] = m
	}
	m.listed, m.addr, m.epoch, m.tombstoned = true, e.Addr, e.Epoch, e.Deleted
	return true
}

// applyDirectoryDelta merges a batch of membership facts and feeds the
// transitions they cause to the lifecycle: a node newly tombstoned
// (evTombstone), and a live node that moved to a new address (evMoved).
func (p *Peer) applyDirectoryDelta(entries []msg.DirEntry) {
	for _, e := range entries {
		was := p.member(e.Node)
		if !p.applyDirEntry(e) {
			continue
		}
		now := p.member(e.Node)
		switch {
		case now.tombstoned && !(was.listed && was.tombstoned):
			p.apply(e.Node, event{kind: evTombstone})
		case !now.tombstoned && was.listed && !was.tombstoned && was.addr != now.addr:
			p.apply(e.Node, event{kind: evMoved})
		}
	}
}

// directoryEntries snapshots the directory — tombstones included — plus
// this node's own live entry, sorted by node name for deterministic wire
// encoding.
func (p *Peer) directoryEntries() []msg.DirEntry {
	out := make([]msg.DirEntry, 0, len(p.members)+1)
	for node, m := range p.members {
		if m.listed {
			out = append(out, msg.DirEntry{Node: node, Addr: m.addr, Epoch: m.epoch, Deleted: m.tombstoned})
		}
	}
	out = append(out, msg.DirEntry{Node: p.name, Addr: p.listenAddr(), Epoch: p.selfEpoch})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// listenAddr returns this node's dialable listen address, or "" when the
// transport has none (in-process bus).
func (p *Peer) listenAddr() string {
	if p.tcp != nil {
		return p.tcp.Addr()
	}
	return ""
}

// mergeBootstrapAddr merges a configuration-supplied address at the static
// bootstrap epoch: it may change another epoch-0 entry's address (a config
// refresh before any runtime membership), but never overrides runtime
// (epoch > 0) facts or tombstones.
func (p *Peer) mergeBootstrapAddr(node, addr string) {
	if node == p.name {
		return
	}
	if cur := p.members[node]; cur != nil && cur.listed && cur.epoch == 0 && !cur.tombstoned && addr != "" && cur.addr != addr {
		cur.addr = addr
		return
	}
	p.applyDirEntry(msg.DirEntry{Node: node, Addr: addr})
}

// floodTargets lists every peer a flood should reach: acquaintances plus
// live (non-tombstoned) directory entries, sorted, self excluded.
func (p *Peer) floodTargets() []string {
	targets := make(map[string]bool)
	for _, a := range p.node.Acquaintances() {
		targets[a] = true
	}
	for node, m := range p.members {
		if m.listed && !m.tombstoned {
			targets[node] = true
		}
	}
	delete(targets, p.name)
	out := make([]string, 0, len(targets))
	for n := range targets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// admit records a joining node at a fresh epoch, floods the delta to every
// other live peer, and builds the JoinAccept handoff (rules snapshot plus
// full directory).
func (p *Peer) admit(node, addr string) *msg.JoinAccept {
	epoch := uint64(1)
	if cur := p.member(node); cur.listed && cur.epoch >= epoch {
		epoch = cur.epoch + 1
	}
	entry := msg.DirEntry{Node: node, Addr: addr, Epoch: epoch}
	p.applyDirectoryDelta([]msg.DirEntry{entry})
	delta := &msg.DirectoryDelta{Entries: []msg.DirEntry{entry}}
	for _, to := range p.floodTargets() {
		if to != node {
			p.sendTo(to, delta)
		}
	}
	return &msg.JoinAccept{
		Node:         p.name,
		Epoch:        epoch,
		RulesVersion: p.rulesVersion,
		RulesText:    p.rulesText,
		Directory:    p.directoryEntries(),
	}
}

// handleJoinRequest admits a joiner that dialed us and replies with the
// JoinAccept handoff over the (fresh) pipe.
func (p *Peer) handleJoinRequest(jr *msg.JoinRequest) {
	if jr.Node == "" || jr.Node == p.name {
		p.log.Warn("rejecting join request", "node", jr.Node)
		return
	}
	acc := p.admit(jr.Node, jr.Addr)
	p.log.Info("admitted peer", "node", jr.Node, "addr", jr.Addr, "epoch", acc.Epoch)
	if err := p.sendTo(jr.Node, acc); err != nil {
		p.log.Warn("join accept not delivered", "to", jr.Node, "err", err)
	}
}

// handleJoinAccept installs the admitter's handoff on the joining side:
// rules snapshot (if newer than ours), directory, and our assigned epoch —
// then releases the JoinVia waiter.
func (p *Peer) handleJoinAccept(acc *msg.JoinAccept) {
	if acc.Epoch > p.selfEpoch {
		p.selfEpoch = acc.Epoch
	}
	// Directory first: installing rules creates pipes, which need the
	// addresses the admitter just told us about.
	p.applyDirectoryDelta(acc.Directory)
	if acc.RulesText != "" && acc.RulesVersion > p.rulesVersion {
		p.applyBroadcast(acc.Node, &msg.RulesBroadcast{Version: acc.RulesVersion, Text: acc.RulesText})
	}
	if p.joinWait != nil {
		select {
		case p.joinWait <- acc:
		default:
		}
		p.joinWait = nil
	}
}

// ---- Public membership API ----

// AdmitJoin admits a node into the live network: it is recorded at a fresh
// epoch, the directory delta is flooded to every other peer, and the
// JoinAccept handoff (rules + directory) is sent to the joiner — dialing
// it at addr if no pipe exists yet. Returns the epoch assigned to the
// joiner. This is what the HTTP membership endpoint and the super-peer
// call on behalf of a joining process.
func (p *Peer) AdmitJoin(node, addr string) (uint64, error) {
	if node == "" || node == p.name {
		return 0, fmt.Errorf("peer %s: cannot admit %q", p.name, node)
	}
	var epoch uint64
	var err error
	if derr := p.do(func() {
		acc := p.admit(node, addr)
		epoch = acc.Epoch
		err = p.sendTo(node, acc)
	}); derr != nil {
		return 0, derr
	}
	if err != nil {
		return 0, fmt.Errorf("peer %s: admit %s: %w", p.name, node, err)
	}
	return epoch, nil
}

// RemoveNode removes a node from the live network on its behalf: a
// tombstone at the node's current epoch is applied locally (severing pipes
// and resetting export state) and flooded to every other peer, so nobody
// keeps dialing the departed address.
func (p *Peer) RemoveNode(node string) error {
	if node == "" || node == p.name {
		return fmt.Errorf("peer %s: cannot remove %q", p.name, node)
	}
	return p.do(func() {
		entry := msg.DirEntry{Node: node, Epoch: p.member(node).epoch, Deleted: true}
		p.applyDirectoryDelta([]msg.DirEntry{entry})
		delta := &msg.DirectoryDelta{Entries: []msg.DirEntry{entry}}
		for _, to := range p.floodTargets() {
			if to != node {
				p.sendTo(to, delta)
			}
		}
	})
}

// JoinVia joins a live network through the peer listening at addr: dial it
// (with the transport's retry/backoff), learn its name from the handshake,
// send a JoinRequest, and wait for the JoinAccept handoff or ctx expiry.
// Requires an address-dialing transport (TCP).
func (p *Peer) JoinVia(ctx context.Context, addr string) error {
	admitter, err := p.tr.ConnectAddr(addr)
	if err != nil {
		return fmt.Errorf("peer %s: join via %s: %w", p.name, addr, err)
	}
	wait := make(chan *msg.JoinAccept, 1)
	var sendErr error
	if derr := p.do(func() {
		p.joinWait = wait
		p.apply(admitter, event{kind: evPipeOpened})
		sendErr = p.tr.Send(admitter, &msg.JoinRequest{Node: p.name, Addr: p.listenAddr()})
	}); derr != nil {
		return derr
	}
	if sendErr != nil {
		p.do(func() { p.joinWait = nil })
		return fmt.Errorf("peer %s: join via %s: %w", p.name, addr, sendErr)
	}
	select {
	case acc := <-wait:
		p.log.Info("joined network", "via", admitter, "epoch", acc.Epoch)
		return nil
	case <-ctx.Done():
		p.do(func() { p.joinWait = nil })
		return fmt.Errorf("peer %s: join via %s: %w", p.name, addr, ctx.Err())
	case <-p.stopped:
		return fmt.Errorf("peer %s: %w", p.name, ErrStopped)
	}
}

// Leave announces a coordinated departure: a Leave notice (tombstoning this
// node's own epoch on every receiver) goes to every live peer, and the
// outbox is flushed so the notice — and any in-flight session traffic —
// reaches the wire before the caller shuts the peer down.
func (p *Peer) Leave() error {
	if err := p.do(func() {
		notice := &msg.Leave{Node: p.name, Epoch: p.selfEpoch}
		for _, to := range p.floodTargets() {
			p.sendTo(to, notice)
		}
	}); err != nil {
		return err
	}
	p.FlushOutbox()
	return nil
}

// ApplyDirectoryEntries merges epoch-stamped membership facts, exactly as
// an inbound DirectoryDelta would (the embedded-network control plane).
func (p *Peer) ApplyDirectoryEntries(entries []msg.DirEntry) error {
	return p.do(func() { p.applyDirectoryDelta(entries) })
}

// SetRulesSnapshot records the rules text a broadcaster would hand to
// joiners. The super-peer needs this: its own Broadcast never loops back
// to its own peer, so the snapshot must be planted directly.
func (p *Peer) SetRulesSnapshot(version int, text string) {
	p.do(func() {
		if version >= p.rulesVersion {
			p.rulesVersion = version
			p.rulesText = text
		}
	})
}

// DirectoryEntry reports what this peer's directory says about a node:
// its dial address and whether it is tombstoned. ok is false when the node
// is unknown.
func (p *Peer) DirectoryEntry(node string) (addr string, deleted bool, ok bool) {
	p.do(func() {
		m := p.member(node)
		addr, deleted, ok = m.addr, m.tombstoned, m.listed
	})
	return addr, deleted, ok
}

// DialFailures reports the transport's exhausted-dial counter; ok is false
// when the transport does not track dials (in-process bus). Stale-address
// regression tests assert this stays zero across churn.
func (p *Peer) DialFailures() (uint64, bool) {
	if p.tcp != nil {
		return p.tcp.DialFailures(), true
	}
	return 0, false
}
