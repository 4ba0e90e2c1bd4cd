package peer

import (
	"context"
	"errors"
	"maps"
	"slices"
	"time"
)

// One peer lifecycle. Everything this node knows about a remote peer — its
// directory fact, whether a pipe to it is open, and what the suspicion
// detector thinks of its silence — is one member record, and every change to
// it goes through step: a pure (member, event) → (member, []effect)
// function with no receiver and no I/O. The actor loop feeds events in
// (apply) and runs the effects step returns.
//
// Ways to lose a peer, and what each writes off:
//
//	tombstone (coordinated leave/removal) — deficits written off and export
//	    state reset: the node is not coming back as the same importer
//	silence (suspicion down), pipe-down, acquaintance dropped — deficits
//	    written off, but no tombstone and no reset: a partitioned peer comes
//	    back with its data, and the durable watermarks let the heal ship
//	    only the missed delta
//	lost or failed send — that one message written off
//	address moved — the pipe alone
//
// The suspicion detector turns silence into the second kind. It runs only
// with a suspicion timeout (0 disables it: no member is tracked and no
// liveness transition fires). Per tracked member:
//
//	alive   — heard from within the timeout
//	suspect — silent for one timeout; observability only
//	down    — silent for two timeouts (or its pipe reported down); written
//	          off, pipe severed, redialled once per timeout
//
// Any inbound envelope returns a tracked peer to alive; a return from down
// is a heal, which re-pipes and pulls the lazy links (catch-up).

// member is the actor-owned record of one remote peer.
type member struct {
	listed     bool   // the directory holds a fact about the node
	addr       string // dial address ("" on in-process buses)
	epoch      uint64 // incarnation the fact belongs to (0 = static bootstrap)
	tombstoned bool   // the node left under this epoch
	piped      bool   // a pipe to it is open
	live       liveness
	lastHeard  time.Time // last inbound traffic (tracked members)
	lastDial   time.Time // paces redials while down
}

// liveness is the suspicion detector's verdict on a member.
type liveness uint8

const (
	untracked liveness = iota
	alive
	suspect
	down
)

func (l liveness) String() string {
	return [...]string{"untracked", "alive", "suspect", "down"}[l]
}

// eventKind names what happened to a member.
type eventKind uint8

const (
	evHeard      eventKind = iota // inbound traffic from it
	evPipeOpened                  // this node opened a pipe to it
	evPipeDown                    // the transport reported its pipe down
	evSendFailed                  // a send to it failed or was lost
	evTick                        // a suspicion scan
	evTombstone                   // the directory newly tombstoned it
	evMoved                       // the directory moved it to a new address
	evDropped                     // reconfiguration dropped it as acquaintance
)

func (k eventKind) String() string {
	return [...]string{"heard", "pipe-opened", "pipe-down", "send-failed", "tick", "tombstone", "moved", "dropped"}[k]
}

// event is one lifecycle input.
type event struct {
	kind     eventKind
	sid      string // evSendFailed: the lost message's session ("" = not a session message)
	pipeLive bool   // evPipeDown: the transport still lists a live pipe (a stale report)
	exempt   bool   // evTick: the transport has no heartbeats, so silence proves nothing
}

// effectKind names one action step asks the actor loop to take.
type effectKind uint8

const (
	disconnect   effectKind = iota // tear the pipe down
	writeOffPeer                   // compensate every in-flight deficit toward it
	writeOffMsg                    // compensate one lost session message
	resetExports                   // forget the export state toward it
	redial                         // re-open the pipe; success is heard-from
	catchUp                        // pull the lazy links after a heal
)

func (k effectKind) String() string {
	return [...]string{"disconnect", "write-off-peer", "write-off-msg", "reset-exports", "redial", "catch-up"}[k]
}

type effect struct {
	kind effectKind
	sid  string // writeOffMsg
}

func (e effect) String() string {
	if e.sid != "" {
		return e.kind.String() + "(" + e.sid + ")"
	}
	return e.kind.String()
}

// step is the peer lifecycle: the member's next state and the effects owed,
// in order. timeout is the suspicion timeout (0 = detector off); now is
// ignored when it is 0.
func step(m member, ev event, now time.Time, timeout time.Duration) (member, []effect) {
	judged := timeout > 0
	switch ev.kind {
	case evHeard:
		if !judged {
			return m, nil
		}
		was := m.live
		m.live, m.lastHeard = alive, now
		switch {
		case was != down:
			return m, nil // a suspect coming back is a flap, not a heal
		case m.piped:
			return m, []effect{{kind: catchUp}}
		default:
			return m, []effect{{kind: redial}, {kind: catchUp}}
		}
	case evPipeOpened:
		m.piped = true
		if judged && m.live == untracked {
			m.live, m.lastHeard = alive, now
		}
		return m, nil
	case evPipeDown:
		if ev.pipeLive {
			// The report is stale: the peer redialled, and acks for old and
			// re-sent messages can still arrive on the live pipe.
			return m, nil
		}
		m.piped = false
		if judged && m.live != down {
			m.live, m.lastDial = down, now // arms the paced redial
		}
		return m, []effect{{kind: writeOffPeer}}
	case evSendFailed:
		m.piped = false
		if ev.sid == "" {
			return m, nil
		}
		return m, []effect{{kind: writeOffMsg, sid: ev.sid}}
	case evTick:
		return tick(m, ev.exempt, now, timeout)
	case evTombstone:
		m.tombstoned, m.piped = true, false
		return untrack(m), []effect{{kind: disconnect}, {kind: writeOffPeer}, {kind: resetExports}}
	case evMoved:
		if !m.piped {
			return m, nil
		}
		// The live pipe points at the dead incarnation; the next send
		// redials the new address.
		m.piped = false
		return m, []effect{{kind: disconnect}}
	case evDropped:
		m.piped = false
		return untrack(m), []effect{{kind: disconnect}, {kind: writeOffPeer}}
	}
	return m, nil
}

// tick judges a tracked member's silence, or paces a down member's redial.
// A silence down writes off what the silence strands but neither tombstones
// nor resets exports (see the package comment above).
func tick(m member, exempt bool, now time.Time, timeout time.Duration) (member, []effect) {
	silence := now.Sub(m.lastHeard)
	switch {
	case timeout <= 0 || m.live == untracked:
	case m.live == down:
		switch {
		case now.Sub(m.lastDial) < timeout:
		case m.tombstoned:
			return untrack(m), nil // not coming back
		default:
			m.lastDial = now
			return m, []effect{{kind: redial}}
		}
	case exempt:
		m.lastHeard = now
	case m.live == alive && silence >= timeout:
		m.live = suspect
	case m.live == suspect && silence >= 2*timeout:
		m.live, m.lastDial, m.piped = down, now, false
		return m, []effect{{kind: disconnect}, {kind: writeOffPeer}}
	}
	return m, nil
}

// untrack stops judging a member's silence.
func untrack(m member) member {
	m.live, m.lastHeard, m.lastDial = untracked, time.Time{}, time.Time{}
	return m
}

// ---- Executor (actor loop) ----

// apply feeds one event for peer through step, runs the effects in order,
// and persists the export state once if any of them wrote something off or
// reset it.
func (p *Peer) apply(peer string, ev event) {
	m := p.members[peer]
	if m == nil {
		m = &member{}
		p.members[peer] = m
	}
	var now time.Time
	if p.timeout > 0 {
		now = time.Now()
	}
	was := *m
	next, effs := step(was, ev, now, p.timeout)
	*m = next
	if next == (member{}) {
		delete(p.members, peer)
	}
	p.countTransition(was.live, next.live)
	writesOff := false
	for _, e := range effs {
		writesOff = writesOff || e.kind == writeOffPeer || e.kind == writeOffMsg || e.kind == resetExports
	}
	if was.live != next.live || len(effs) > 0 {
		log := p.log.Info
		if writesOff || next.live == suspect || next.live == down {
			log = p.log.Warn
		}
		log("peer lifecycle", "member", peer, "event", ev.kind, "from", was.live, "to", next.live, "effects", effs)
	}
	for _, e := range effs {
		switch e.kind {
		case disconnect:
			p.tr.Disconnect(peer)
		case writeOffPeer:
			p.dispatch(p.node.CompensatePeerLoss(peer))
		case writeOffMsg:
			p.dispatch(p.node.CompensateLost(e.sid, peer, 1))
		case resetExports:
			p.node.ResetExportStateToward(peer)
		case redial:
			if err := p.ensurePipe(peer); err != nil {
				p.log.Debug("redial failed", "member", peer, "err", err)
			} else {
				p.apply(peer, event{kind: evHeard})
			}
		case catchUp:
			p.catchUp(peer)
		}
	}
}

// countTransition bumps the detector's transition counters.
func (p *Peer) countTransition(was, now liveness) {
	switch {
	case was == now:
	case now == suspect:
		p.suspects++
	case now == down:
		p.downs++
	case was == down && now == alive:
		p.heals++
	}
}

// healCatchUpTimeout bounds the pull catch-up a heal triggers.
const healCatchUpTimeout = 30 * time.Second

// catchUp finishes a heal: the re-pipe has re-run the directory delta
// exchange; catch-up then pulls every lazy outgoing link, each resuming from
// its exporter's durable watermark. Push links are not pulled: the write-off
// already reset their exporters' export state (distrustImporter), and the
// next update re-exports over them. A pull there would commit upstream rows
// behind a running update's exports, which then never push them on. The
// pull posts commands into the actor loop, so it runs in its own goroutine.
func (p *Peer) catchUp(peer string) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), healCatchUpTimeout)
		defer cancel()
		if _, err := p.pull(ctx, p.lazyOutgoing); err != nil && !errors.Is(err, ErrStopped) {
			p.log.Warn("post-heal catch-up incomplete", "member", peer, "err", err)
		}
	}()
}

// suspicionLoop drives the detector off-loop: each tick posts a scan into
// the actor loop and waits for it, so ticks never pile up behind a
// backlogged queue.
func (p *Peer) suspicionLoop(interval time.Duration) {
	tk := time.NewTicker(interval)
	defer tk.Stop()
	for {
		select {
		case <-p.stopped:
			return
		case <-tk.C:
		}
		if p.do(p.suspicionScan) != nil {
			return
		}
	}
}

// suspicionScan feeds one tick to every member, in name order.
func (p *Peer) suspicionScan() {
	for _, peer := range slices.Sorted(maps.Keys(p.members)) {
		if m := p.members[peer]; m != nil && m.live != untracked {
			p.apply(peer, event{kind: evTick, exempt: p.tcp == nil})
		}
	}
}

// MembershipStats is the failure detector's observability snapshot plus
// directory totals, served on GET /v1/stats/membership and the console's
// membership command.
type MembershipStats struct {
	// Enabled reports whether the suspicion detector is running.
	Enabled bool `json:"enabled"`
	// States maps each tracked acquaintance to its suspicion state
	// ("alive", "suspect", "down").
	States map[string]string `json:"states,omitempty"`
	// Suspects, Downs and Heals count state transitions since start.
	Suspects uint64 `json:"suspects"`
	Downs    uint64 `json:"downs"`
	Heals    uint64 `json:"heals"`
	// LivePeers and Tombstones are directory totals (self excluded).
	LivePeers  int `json:"live_peers"`
	Tombstones int `json:"tombstones"`
}

// MembershipStats snapshots the member table.
func (p *Peer) MembershipStats() MembershipStats {
	var out MembershipStats
	p.do(func() {
		out = MembershipStats{Enabled: p.timeout > 0, Suspects: p.suspects, Downs: p.downs, Heals: p.heals}
		for node, m := range p.members {
			switch {
			case m.listed && node != p.name && m.tombstoned:
				out.Tombstones++
			case m.listed && node != p.name:
				out.LivePeers++
			}
			if m.live != untracked {
				if out.States == nil {
					out.States = make(map[string]string)
				}
				out.States[node] = m.live.String()
			}
		}
	})
	return out
}
