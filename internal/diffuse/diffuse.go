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
// A Session is one node's detector state for one session, a value that the
// owner embeds in its own session record, so the state is created and
// freed with that record. It is a passive bookkeeping core: the owner (one
// peer's actor loop) reports sends and receipts and asks what to do; it
// never performs I/O itself and is not safe for concurrent use. Its zero
// value is a disengaged node that owes nothing.
package diffuse

// Session is one node's detector state for one session.
type Session struct {
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
}

// Start makes this node the initiator of the session.
func (s *Session) Start() {
	s.engaged = true
	s.initiator = true
}

// Sent records n basic messages sent to `to`.
func (s *Session) Sent(to string, n int) {
	if n <= 0 {
		return
	}
	if s.perDest == nil {
		s.perDest = make(map[string]int)
	}
	s.deficit += n
	s.perDest[to] += n
}

// Received records one basic message received from `from`. The caller must
// process the message fully (performing and recording any resulting sends)
// and then call Flush to emit acknowledgements and the detach decision.
func (s *Session) Received(from string) {
	if !s.engaged {
		s.engaged = true
		s.parent = from
		s.parentOwed = true
		return
	}
	if s.owedAcks == nil {
		s.owedAcks = make(map[string]int)
	}
	s.owedAcks[from]++
}

// AckReceived records an acknowledgement from `from` for n of our basic
// messages and returns how many it applied. Acks beyond the destination's
// outstanding deficit (duplicated acks, or acks arriving after LostPeer
// compensation) are ignored, so a single bad peer cannot wedge termination
// or drive the deficit negative.
func (s *Session) AckReceived(from string, n int) int {
	if out := s.perDest[from]; n > out {
		n = out
	}
	if n <= 0 {
		return 0
	}
	s.perDest[from] -= n
	if s.perDest[from] == 0 {
		delete(s.perDest, from)
	}
	s.deficit -= n
	return n
}

// LostPeer clears the outstanding deficit toward a peer whose pipe has
// failed, returning the number of messages written off. The peer's
// acknowledgements can no longer arrive, so without this the initiator's
// deficit would stay positive forever; with it, sessions terminate even on
// dynamic networks.
func (s *Session) LostPeer(to string) int {
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
func (s *Session) Flush() (acks []Ack, terminated bool) {
	for from, n := range s.owedAcks {
		if n > 0 {
			acks = append(acks, Ack{To: from, N: n})
		}
		delete(s.owedAcks, from)
	}
	if s.engaged && s.deficit == 0 {
		if s.initiator {
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

// Deficit exposes the current deficit (for tests and reports).
func (s *Session) Deficit() int { return s.deficit }

// DeficitTo exposes the outstanding deficit toward one destination.
func (s *Session) DeficitTo(to string) int { return s.perDest[to] }
