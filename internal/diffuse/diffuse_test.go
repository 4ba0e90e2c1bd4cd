package diffuse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitiatorAloneTerminatesImmediately(t *testing.T) {
	e := new(Session)
	e.Start()
	acks, term := e.Flush()
	if len(acks) != 0 || !term {
		t.Errorf("Flush = %v, %v", acks, term)
	}
	if _, term := e.Flush(); !term {
		t.Error("a second Flush lost the verdict")
	}
}

func TestTwoNodeExchange(t *testing.T) {
	a, b := new(Session), new(Session)
	a.Start()

	// a sends one request to b.
	a.Sent("b", 1)
	if acks, term := a.Flush(); term || len(acks) != 0 {
		t.Fatalf("a should be waiting: %v %v", acks, term)
	}

	// b receives (engaging), replies with one data message, flushes.
	b.Received("a")
	b.Sent("a", 1)
	acks, term := b.Flush()
	if term || len(acks) != 0 {
		t.Fatalf("b must not detach with deficit 1: %v %v", acks, term)
	}

	// a receives b's data; acks immediately (a is engaged as initiator).
	a.Received("b")
	acks, term = a.Flush()
	if term {
		t.Fatal("a cannot be terminated with deficit 1")
	}
	if len(acks) != 1 || acks[0].To != "b" || acks[0].N != 1 {
		t.Fatalf("a acks = %v", acks)
	}

	// b gets the ack; now deficit 0 -> detach: deferred ack to parent a.
	b.AckReceived("a", 1)
	acks, term = b.Flush()
	if term {
		t.Fatal("non-initiator cannot report termination")
	}
	if len(acks) != 1 || acks[0].To != "a" || acks[0].N != 1 {
		t.Fatalf("b detach acks = %v", acks)
	}
	if b.engaged {
		t.Error("b still engaged after detach")
	}

	// a gets the deferred ack: terminated.
	a.AckReceived("b", 1)
	_, term = a.Flush()
	if !term {
		t.Error("a did not detect termination")
	}
}

func TestReEngagement(t *testing.T) {
	b := new(Session)
	// First engagement from a.
	b.Received("a")
	acks, _ := b.Flush()
	if len(acks) != 1 || acks[0].To != "a" {
		t.Fatalf("first detach = %v", acks)
	}
	// Re-engagement from c: parent is now c.
	b.Received("c")
	acks, _ = b.Flush()
	if len(acks) != 1 || acks[0].To != "c" {
		t.Fatalf("re-engagement detach = %v", acks)
	}
}

func TestAckBatching(t *testing.T) {
	b := new(Session)
	b.Received("a") // engaging
	b.Received("c")
	b.Received("c")
	b.Sent("x", 1) // keep b engaged (deficit 1)
	acks, _ := b.Flush()
	if len(acks) != 1 || acks[0].To != "c" || acks[0].N != 2 {
		t.Fatalf("batched acks = %v", acks)
	}
}

func TestDuplicateAckClamped(t *testing.T) {
	a := new(Session)
	a.Start()
	a.Sent("b", 1)
	a.AckReceived("b", 1)
	a.AckReceived("b", 1) // protocol violation
	if a.Deficit() != 0 {
		t.Errorf("deficit = %d", a.Deficit())
	}
	if _, term := a.Flush(); !term {
		t.Error("should terminate after clamp")
	}
}

// simulated message for the randomized protocol test.
type simMsg struct {
	from, to string
	kind     uint8 // 0 basic, 1 ack
	n        int
}

// TestQuickRandomTopologyTermination simulates diffusing computations over
// random directed graphs with random work generation and asserts both
// safety (termination declared only when no basic messages are in flight
// and all nodes are disengaged except the initiator) and liveness (the
// simulation always reaches termination).
func TestQuickRandomTopologyTermination(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nNodes := rnd.Intn(6) + 2
		nodes := make([]string, nNodes)
		engines := make(map[string]*Session, nNodes)
		for i := range nodes {
			name := string(rune('A' + i))
			nodes[i] = name
			engines[name] = new(Session)
		}
		// Random directed edges (possibly cyclic).
		var edges [][2]string
		for i := 0; i < nNodes; i++ {
			for j := 0; j < nNodes; j++ {
				if i != j && rnd.Intn(3) == 0 {
					edges = append(edges, [2]string{nodes[i], nodes[j]})
				}
			}
		}
		out := func(n string) []string {
			var o []string
			for _, e := range edges {
				if e[0] == n {
					o = append(o, e[1])
				}
			}
			return o
		}

		init := nodes[0]
		engines[init].Start()

		var queue []simMsg
		// workBudget caps total basic messages so the computation is finite.
		workBudget := 60

		send := func(from string, to string) {
			engines[from].Sent(to, 1)
			queue = append(queue, simMsg{from: from, to: to, kind: 0})
		}
		// Initiator seeds the computation.
		for _, o := range out(init) {
			if workBudget > 0 {
				send(init, o)
				workBudget--
			}
		}
		flush := func(n string) bool {
			acks, term := engines[n].Flush()
			for _, a := range acks {
				queue = append(queue, simMsg{from: n, to: a.To, kind: 1, n: a.N})
			}
			return term
		}
		terminated := flush(init)

		steps := 0
		for len(queue) > 0 {
			steps++
			if steps > 100000 {
				t.Logf("liveness violation: queue stuck at %d", len(queue))
				return false
			}
			// Deliver a random in-flight message.
			i := rnd.Intn(len(queue))
			m := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			e := engines[m.to]
			if m.kind == 1 {
				e.AckReceived(m.from, m.n)
			} else {
				e.Received(m.from)
				// Random work: forward basic messages to random neighbors.
				for _, o := range out(m.to) {
					if workBudget > 0 && rnd.Intn(2) == 0 {
						send(m.to, o)
						workBudget--
					}
				}
			}
			if flush(m.to) {
				terminated = true
				// Safety: no basic messages may be in flight.
				for _, q := range queue {
					if q.kind == 0 {
						t.Logf("terminated with basic message in flight %v", q)
						return false
					}
				}
				for _, n := range nodes {
					if n != init && engines[n].engaged {
						t.Logf("terminated while %s still engaged", n)
						return false
					}
					if engines[n].Deficit() != 0 {
						t.Logf("terminated while %s has deficit", n)
						return false
					}
				}
			}
		}
		if !terminated {
			t.Log("computation drained without termination detection")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLostPeerClearsPerDestinationDeficit: writing off a failed pipe
// removes exactly that destination's outstanding messages, letting the
// initiator terminate, while other destinations stay accounted.
func TestLostPeerClearsPerDestinationDeficit(t *testing.T) {
	a := new(Session)
	a.Start()
	a.Sent("b", 2)
	a.Sent("c", 1)
	if a.Deficit() != 3 || a.DeficitTo("b") != 2 {
		t.Fatalf("deficit = %d / to b = %d", a.Deficit(), a.DeficitTo("b"))
	}
	if lost := a.LostPeer("b"); lost != 2 {
		t.Errorf("LostPeer = %d, want 2", lost)
	}
	if _, term := a.Flush(); term {
		t.Error("terminated with c still outstanding")
	}
	// A late ack from b (already written off) must be ignored.
	a.AckReceived("b", 2)
	if a.Deficit() != 1 {
		t.Errorf("late ack disturbed deficit: %d", a.Deficit())
	}
	a.AckReceived("c", 1)
	if _, term := a.Flush(); !term {
		t.Error("no termination after all pipes settled")
	}
	if new(Session).LostPeer("b") != 0 {
		t.Error("a fresh session wrote off messages")
	}
}
