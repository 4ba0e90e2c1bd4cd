// Package diffuse implements Dijkstra–Scholten termination detection for
// diffusing computations — the mechanism behind coDB's guarantee that a
// global update (or a distributed query) terminates even when coordination
// rules are cyclic. The paper cites an "extension of the diffusing
// computation approach [Lynch 1996]"; Dijkstra–Scholten is the canonical
// such algorithm and is correct on arbitrary, including cyclic, topologies.
//
// Protocol summary. Basic messages (session requests and data) form the
// computation; every basic message is eventually acknowledged. A node's
// *deficit* counts its sent-but-unacknowledged basic messages. The first
// basic message a disengaged node receives makes the sender its *parent*;
// the acknowledgement of that engaging message is deferred until the node
// *detaches*: it is passive (not processing) and its deficit is zero. The
// initiator starts engaged with no parent; the computation has terminated
// exactly when the initiator is passive with zero deficit.
//
// The engine is a passive bookkeeping core: the owner (one peer's actor
// loop) reports sends and receipts and asks what to do; the engine never
// performs I/O itself and is not safe for concurrent use.
package diffuse

import "fmt"

// Engine tracks every session this node participates in.
type Engine struct {
	self     string
	sessions map[string]*session
}

type session struct {
	engaged   bool
	initiator bool
	parent    string
	// deficit counts sent-but-unacknowledged basic messages, in total and
	// per destination. The per-destination split lets the owner clear
	// exactly the outstanding messages of one failed pipe (LostPeer) —
	// over an asynchronous transport a write can succeed into a dead
	// connection, so send errors alone cannot account for every loss.
	deficit int
	perDest map[string]int
	// owedAcks counts received-and-processed basic messages per sender
	// whose acknowledgements have not been emitted yet (batching).
	owedAcks map[string]int
	// parentOwed is the deferred acknowledgement for the engaging message.
	parentOwed bool
	terminated bool
}

// New returns an engine for the given node.
func New(self string) *Engine {
	return &Engine{self: self, sessions: make(map[string]*session)}
}

func (e *Engine) get(sid string) *session {
	s := e.sessions[sid]
	if s == nil {
		s = &session{owedAcks: make(map[string]int), perDest: make(map[string]int)}
		e.sessions[sid] = s
	}
	return s
}

// Start registers this node as the initiator of a session.
func (e *Engine) Start(sid string) {
	s := e.get(sid)
	s.engaged = true
	s.initiator = true
}

// Known reports whether the engine is tracking the session.
func (e *Engine) Known(sid string) bool { return e.sessions[sid] != nil }

// Initiator reports whether this node initiated the session.
func (e *Engine) Initiator(sid string) bool {
	s := e.sessions[sid]
	return s != nil && s.initiator
}

// Sent records n basic messages sent to `to` in the session.
func (e *Engine) Sent(sid, to string, n int) {
	if n <= 0 {
		return
	}
	s := e.get(sid)
	s.deficit += n
	s.perDest[to] += n
}

// Received records one basic message received from `from`. The caller must
// process the message fully (performing and recording any resulting sends)
// and then call Flush to emit acknowledgements and the detach decision.
func (e *Engine) Received(sid, from string) {
	s := e.get(sid)
	if !s.engaged {
		s.engaged = true
		s.parent = from
		s.parentOwed = true
		s.terminated = false
		return
	}
	s.owedAcks[from]++
}

// AckReceived records an acknowledgement from `from` for n of our basic
// messages. Acks beyond the destination's outstanding deficit (duplicated
// acks, or acks arriving after LostPeer compensation) are ignored, so a
// single bad peer cannot wedge termination or drive the deficit negative.
func (e *Engine) AckReceived(sid, from string, n int) {
	s := e.get(sid)
	if out := s.perDest[from]; n > out {
		n = out
	}
	if n <= 0 {
		return
	}
	s.perDest[from] -= n
	if s.perDest[from] == 0 {
		delete(s.perDest, from)
	}
	s.deficit -= n
}

// LostPeer clears the session's outstanding deficit toward a peer whose
// pipe has failed, returning the number of messages written off. The
// peer's acknowledgements can no longer arrive, so without this the
// initiator's deficit would stay positive forever; with it, sessions
// terminate even on dynamic networks.
func (e *Engine) LostPeer(sid, to string) int {
	s := e.sessions[sid]
	if s == nil {
		return 0
	}
	lost := s.perDest[to]
	if lost > 0 {
		delete(s.perDest, to)
		s.deficit -= lost
	}
	return lost
}

// Ack is one acknowledgement instruction: send an ack for N messages to To.
type Ack struct {
	To string
	N  int
}

// Flush returns the acknowledgements to emit now that the node is passive
// again, and whether the initiator has detected termination. Non-engaging
// messages are always acknowledged; the deferred parent acknowledgement is
// included only when the node detaches (deficit zero).
func (e *Engine) Flush(sid string) (acks []Ack, terminated bool) {
	s := e.sessions[sid]
	if s == nil {
		return nil, false
	}
	for from, n := range s.owedAcks {
		if n > 0 {
			acks = append(acks, Ack{To: from, N: n})
		}
		delete(s.owedAcks, from)
	}
	if s.engaged && s.deficit == 0 {
		if s.initiator {
			s.terminated = true
			return acks, true
		}
		if s.parentOwed {
			acks = append(acks, Ack{To: s.parent, N: 1})
		}
		s.engaged = false
		s.parentOwed = false
		s.parent = ""
	}
	return acks, false
}

// Terminated reports whether the initiator has detected termination.
func (e *Engine) Terminated(sid string) bool {
	s := e.sessions[sid]
	return s != nil && s.terminated
}

// Deficit exposes the current deficit (for tests and reports).
func (e *Engine) Deficit(sid string) int {
	s := e.sessions[sid]
	if s == nil {
		return 0
	}
	return s.deficit
}

// DeficitTo exposes the outstanding deficit toward one destination.
func (e *Engine) DeficitTo(sid, to string) int {
	s := e.sessions[sid]
	if s == nil {
		return 0
	}
	return s.perDest[to]
}

// Engaged reports whether the node is currently part of the session's tree.
func (e *Engine) Engaged(sid string) bool {
	s := e.sessions[sid]
	return s != nil && s.engaged
}

// Drop forgets a session (after Done handling); freeing per-session state.
func (e *Engine) Drop(sid string) { delete(e.sessions, sid) }

// Sessions returns the IDs of tracked sessions.
func (e *Engine) Sessions() []string {
	out := make([]string, 0, len(e.sessions))
	for sid := range e.sessions {
		out = append(out, sid)
	}
	return out
}

// String summarises one session's detector state (debugging aid).
func (e *Engine) String(sid string) string {
	s := e.sessions[sid]
	if s == nil {
		return "unknown session"
	}
	return fmt.Sprintf("engaged=%v initiator=%v parent=%q deficit=%d terminated=%v",
		s.engaged, s.initiator, s.parent, s.deficit, s.terminated)
}
