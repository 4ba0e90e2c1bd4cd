package peer

import (
	"context"
	"errors"
	"sort"
	"time"

	"codb/internal/transport"
)

// The suspicion failure detector turns silence into membership signal.
// A partition is a leave without a tombstone: the departed peer said
// nothing, holds no intention of staying away, and will reappear with its
// durable state intact. So unlike coordinated removal (forgetPeer), a
// suspicion verdict must write off what the silence strands — in-flight
// Dijkstra–Scholten deficits, the dead pipe — while keeping everything a
// comeback resumes from: the directory entry (no tombstone) and the durable
// export watermarks (no reset), so the heal ships only the missed delta.
//
// States per tracked acquaintance:
//
//	alive   — heard from within SuspicionTimeout
//	suspect — silent for one timeout; observability only, nothing written off
//	down    — silent for two timeouts; deficits compensated, pipe severed,
//	          paced redials begin
//
// Any inbound envelope (a heartbeat, or any payload at all) returns the
// peer to alive; a return from down is a heal, which the peer layer follows
// with a re-pipe, a directory delta exchange, and a catch-up pull.
//
// The machine is synchronous and unlocked: the peer actor loop owns it, and
// the clock is injected so tests drive it with a fake.
type suspicion struct {
	timeout time.Duration
	now     func() time.Time

	peers map[string]*suspEntry

	// Cumulative transition counters, for stats and benchmark assertions.
	suspects uint64 // alive → suspect
	downs    uint64 // suspect → down (or a pipe-down report)
	heals    uint64 // down → alive
}

type suspState uint8

const (
	suspAlive suspState = iota
	suspSuspect
	suspDown
)

func (s suspState) String() string {
	switch s {
	case suspSuspect:
		return "suspect"
	case suspDown:
		return "down"
	default:
		return "alive"
	}
}

type suspEntry struct {
	state     suspState
	lastHeard time.Time
	lastDial  time.Time // paces redials while down
}

func newSuspicion(timeout time.Duration, now func() time.Time) *suspicion {
	return &suspicion{timeout: timeout, now: now, peers: make(map[string]*suspEntry)}
}

// track starts watching a peer if it is not already tracked (a fresh pipe).
// Existing state — including down — is preserved.
func (s *suspicion) track(peer string) {
	if s.peers[peer] == nil {
		s.peers[peer] = &suspEntry{lastHeard: s.now()}
	}
}

// observe records traffic from a peer, returning true when the peer was
// down — the caller owes it a heal (re-pipe + catch-up).
func (s *suspicion) observe(peer string) (healed bool) {
	e := s.peers[peer]
	if e == nil {
		e = &suspEntry{}
		s.peers[peer] = e
	}
	prev := e.state
	e.state = suspAlive
	e.lastHeard = s.now()
	if prev == suspDown {
		s.heals++
		return true
	}
	return false
}

// noteDown forces a peer straight to down (the transport reported its pipe
// torn). The caller has already written off the loss; recording the state
// here is what arms the paced-redial heal path.
func (s *suspicion) noteDown(peer string) {
	e := s.peers[peer]
	if e == nil {
		e = &suspEntry{}
		s.peers[peer] = e
	}
	if e.state == suspDown {
		return
	}
	e.state = suspDown
	e.lastDial = s.now()
	s.downs++
}

// forget stops tracking a peer (tombstoned: it is not expected back).
func (s *suspicion) forget(peer string) { delete(s.peers, peer) }

// tick advances every tracked peer against the clock and returns the peers
// that newly became suspect and newly became down, sorted. exempt marks
// peers that cannot be judged by silence — e.g. over a transport without
// heartbeats — and resets their timer instead.
func (s *suspicion) tick(exempt func(peer string) bool) (suspects, downs []string) {
	now := s.now()
	for peer, e := range s.peers {
		if e.state != suspDown && exempt != nil && exempt(peer) {
			e.lastHeard = now
			continue
		}
		silence := now.Sub(e.lastHeard)
		switch e.state {
		case suspAlive:
			if silence >= s.timeout {
				e.state = suspSuspect
				s.suspects++
				suspects = append(suspects, peer)
			}
		case suspSuspect:
			if silence >= 2*s.timeout {
				e.state = suspDown
				e.lastDial = now
				s.downs++
				downs = append(downs, peer)
			}
		}
	}
	sort.Strings(suspects)
	sort.Strings(downs)
	return suspects, downs
}

// redialDue returns the down peers whose redial pacing has elapsed,
// stamping each so one timeout passes between attempts.
func (s *suspicion) redialDue() []string {
	now := s.now()
	var due []string
	for peer, e := range s.peers {
		if e.state == suspDown && now.Sub(e.lastDial) >= s.timeout {
			e.lastDial = now
			due = append(due, peer)
		}
	}
	sort.Strings(due)
	return due
}

// states snapshots every tracked peer's state name.
func (s *suspicion) states() map[string]string {
	out := make(map[string]string, len(s.peers))
	for peer, e := range s.peers {
		out[peer] = e.state.String()
	}
	return out
}

// ---- Peer integration (actor loop unless noted) ----

// healCatchUpTimeout bounds the pull catch-up a heal triggers.
const healCatchUpTimeout = 30 * time.Second

// suspicionLoop drives the detector off-loop: each tick posts a command
// into the actor loop (which owns the machine) and waits for it, so ticks
// never pile up behind a saturated inbox.
func (p *Peer) suspicionLoop(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stopped:
			return
		case <-tick.C:
		}
		cmd := command{run: p.suspicionTick, done: make(chan struct{})}
		select {
		case p.inbox <- cmd:
		case <-p.stopped:
			return
		}
		select {
		case <-cmd.done:
		case <-p.stopped:
			return
		}
	}
}

// suspicionExempt marks peers that cannot be judged by silence: transports
// without heartbeats (the in-process bus) exempt everyone.
func (p *Peer) suspicionExempt(string) bool {
	_, ok := rawTransport(p.tr).(*transport.TCP)
	return !ok
}

// suspicionTick advances the detector one scan: new suspects are logged,
// new downs are written off — deficits compensated so in-flight sessions
// terminate, pipe severed — and down peers due a paced redial are retried.
// Deliberately absent from the down path: no tombstone, and no
// ResetExportStateToward — a partitioned peer is expected back with its
// materialised data intact, and the durable watermarks are what let the
// heal ship only the missed delta.
func (p *Peer) suspicionTick() {
	suspects, downs := p.susp.tick(p.suspicionExempt)
	for _, peer := range suspects {
		p.log.Warn("peer suspected", "peer", peer, "timeout", p.susp.timeout)
	}
	for _, peer := range downs {
		p.log.Warn("peer down, writing off in-flight messages", "peer", peer)
		p.tr.Disconnect(peer)
		delete(p.piped, peer)
		p.dispatch(p.node.CompensatePeerLoss(peer))
		p.persistExportState()
	}
	for _, peer := range p.susp.redialDue() {
		p.tryHeal(peer)
	}
}

// tryHeal re-dials a down peer. Failure (still partitioned) just waits out
// the next pacing window; success is a heal.
func (p *Peer) tryHeal(peer string) {
	if entry, ok := p.directory[peer]; ok && entry.deleted {
		p.susp.forget(peer) // tombstoned while down: not coming back
		return
	}
	if err := p.ensurePipe(peer); err != nil {
		p.log.Debug("redial failed", "peer", peer, "err", err)
		return
	}
	if p.susp.observe(peer) {
		p.afterHeal(peer)
	}
}

// healPeer handles a down peer observed alive again (its traffic resumed on
// a pipe it re-established from its side): make sure our side is piped too,
// then catch up.
func (p *Peer) healPeer(peer string) {
	if err := p.ensurePipe(peer); err != nil {
		p.log.Warn("heal re-pipe failed", "peer", peer, "err", err)
	}
	p.afterHeal(peer)
}

// afterHeal finishes a heal: ensurePipe has re-run the directory delta
// exchange over the fresh pipe; catch-up then pulls every lazy outgoing
// link, each resuming from its exporter's durable watermark. Push links are
// not pulled: the write-off already reset their exporters' export state
// (distrustImporter), and the next update re-exports over them. A pull
// there would commit upstream rows behind a running update's exports, which
// then never push them on. The pull posts commands into the actor loop, so
// it runs in its own goroutine.
func (p *Peer) afterHeal(peer string) {
	p.log.Info("peer healed, catching up", "peer", peer)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), healCatchUpTimeout)
		defer cancel()
		if _, err := p.pull(ctx, p.lazyOutgoing); err != nil && !errors.Is(err, ErrStopped) {
			p.log.Warn("post-heal catch-up incomplete", "peer", peer, "err", err)
		}
	}()
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

// MembershipStats snapshots the failure detector and directory.
func (p *Peer) MembershipStats() MembershipStats {
	var out MembershipStats
	p.do(func() {
		for node, e := range p.directory {
			if node == p.name {
				continue
			}
			if e.deleted {
				out.Tombstones++
			} else {
				out.LivePeers++
			}
		}
		if p.susp == nil {
			return
		}
		out.Enabled = true
		out.States = p.susp.states()
		out.Suspects = p.susp.suspects
		out.Downs = p.susp.downs
		out.Heals = p.susp.heals
	})
	return out
}
