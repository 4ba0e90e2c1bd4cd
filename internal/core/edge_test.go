package core

import (
	"testing"

	"codb/internal/diffuse"
	"codb/internal/msg"
	"codb/internal/relation"
)

// TestHandleUnknownPayloadIgnored: the dispatcher must not blow up on
// payload types it does not handle.
func TestHandleUnknownPayloadIgnored(t *testing.T) {
	s := newSim(t)
	n := s.addNode("A", "r/1")
	res := n.Handle(msg.Envelope{From: "x", Payload: &msg.Heartbeat{Seq: 1}})
	if len(res.Out) != 0 || len(res.Finished) != 0 {
		t.Errorf("unknown payload produced output: %+v", res)
	}
}

// TestStaleMessageAfterDone: a basic message of a finished session must be
// acknowledged (so the sender's detector does not wedge) without
// re-finishing the session, recreating it, or applying what it carries.
func TestStaleMessageAfterDone(t *testing.T) {
	stale := []struct {
		name    string
		payload func(sid string) msg.Payload
	}{
		{"SessionData", func(sid string) msg.Payload {
			return &msg.SessionData{SID: sid, Kind: msg.KindUpdate, Origin: "A", RuleID: "r1",
				Bindings: []relation.Tuple{{relation.Int(9)}}, Path: []string{"B"}}
		}},
		{"SessionRequest", func(sid string) msg.Payload {
			return &msg.SessionRequest{SID: sid, Kind: msg.KindUpdate, Origin: "A", Path: []string{"B"}}
		}},
	}
	for _, tc := range stale {
		t.Run(tc.name, func(t *testing.T) {
			s := newSim(t)
			s.addNode("A", "r/1")
			s.addNode("B", "r/1")
			s.rule("r1", `A.r(x) <- B.r(x)`)
			s.seed("B", "r", []int{1})
			s.update("A")

			a := s.nodes["A"]
			var sid string
			for _, rep := range a.Reports() {
				sid = rep.SID
			}
			res := a.Handle(msg.Envelope{From: "B", Payload: tc.payload(sid)})
			acked := 0
			for _, o := range res.Out {
				if ack, ok := o.Payload.(*msg.SessionAck); ok && ack.SID == sid && o.To == "B" {
					acked += ack.N
				}
			}
			if acked != 1 {
				t.Errorf("stale %s acknowledged %d times, want 1: %+v", tc.name, acked, res.Out)
			}
			if len(res.Finished) != 0 {
				t.Error("stale message re-finished the session")
			}
			if active := a.ActiveSessions(); len(active) != 0 {
				t.Errorf("stale message recreated sessions %v", active)
			}
			if got := a.Wrapper().Count("r"); got != 1 {
				t.Errorf("A holds %d r tuples after the stale message, want 1", got)
			}
		})
	}
}

// deficitTo is a node's outstanding deficit toward one peer in a running
// session (0 once the session is gone).
func deficitTo(n *Node, sid, to string) int {
	if s := n.sessions[sid]; s != nil {
		return s.ds.DeficitTo(to)
	}
	return 0
}

// TestStaleMessagesInOneBurst: stale messages of a finished session from two
// senders within one burst are each acknowledged at the flush, the first as
// the stub's parent and the second as an owed ack, so neither sender's
// deficit toward the node stays stuck.
func TestStaleMessagesInOneBurst(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1})
	s.update("A")
	a := s.nodes["A"]
	var sid string
	for _, rep := range a.Reports() {
		sid = rep.SID
	}

	// The senders' detectors, each with one basic message in flight to A.
	senders := map[string]*diffuse.Session{"B": new(diffuse.Session), "C": new(diffuse.Session)}
	a.DeferAcks(true)
	for _, env := range []msg.Envelope{
		{From: "B", Payload: &msg.SessionRequest{SID: sid, Kind: msg.KindUpdate, Origin: "A", Path: []string{"B"}}},
		{From: "C", Payload: &msg.SessionData{SID: sid, Kind: msg.KindUpdate, Origin: "A", RuleID: "r1",
			Bindings: []relation.Tuple{{relation.Int(9)}}, Path: []string{"C"}}},
	} {
		senders[env.From].Sent("A", 1)
		if res := a.Handle(env); len(res.Out) != 0 {
			t.Fatalf("stale message from %s answered inside the burst: %+v", env.From, res.Out)
		}
	}
	res := a.FlushDeferred()
	for _, o := range res.Out {
		ack, ok := o.Payload.(*msg.SessionAck)
		if !ok || ack.SID != sid || senders[o.To] == nil {
			t.Fatalf("flush sent %T to %s: %+v", o.Payload, o.To, o.Payload)
		}
		senders[o.To].AckReceived("A", ack.N)
	}
	for name, d := range senders {
		if left := d.DeficitTo("A"); left != 0 {
			t.Errorf("%s still counts %d unacknowledged messages to A", name, left)
		}
	}
	if len(res.Finished) != 0 {
		t.Error("stale messages re-finished the session")
	}
	if active := a.ActiveSessions(); len(active) != 0 {
		t.Errorf("stale messages recreated sessions %v", active)
	}
	if got := a.Wrapper().Count("r"); got != 1 {
		t.Errorf("A holds %d r tuples after the stale burst, want 1", got)
	}
}

// TestDataForUnknownRuleAcknowledged: data for a rule this node does not
// know (topology changed mid-session) must still be acknowledged.
func TestDataForUnknownRuleAcknowledged(t *testing.T) {
	s := newSim(t)
	a := s.addNode("A", "r/1")
	data := &msg.SessionData{
		SID: "ghost-session", Kind: msg.KindUpdate, Origin: "B",
		RuleID: "no-such-rule", Bindings: []relation.Tuple{{relation.Int(1)}},
		Path: []string{"B"},
	}
	res := a.Handle(msg.Envelope{From: "B", Payload: data})
	ackSeen := false
	for _, o := range res.Out {
		if ack, ok := o.Payload.(*msg.SessionAck); ok && ack.SID == "ghost-session" && o.To == "B" {
			ackSeen = true
		}
	}
	if !ackSeen {
		t.Errorf("data for unknown rule not acknowledged: %+v", res.Out)
	}
	if a.Wrapper().Count("r") != 0 {
		t.Error("unknown-rule data was materialised")
	}
}

// TestDoneForUnknownSessionIgnored: completion notices for sessions this
// node never saw are dropped without forwarding loops.
func TestDoneForUnknownSessionIgnored(t *testing.T) {
	s := newSim(t)
	a := s.addNode("A", "r/1")
	res := a.Handle(msg.Envelope{From: "B", Payload: &msg.SessionDone{SID: "never-seen", Origin: "B"}})
	if len(res.Out) != 0 {
		t.Errorf("unknown Done forwarded: %+v", res.Out)
	}
}

// TestCompensateLostUnblocksInitiator: if a request cannot be delivered,
// compensating the lost message lets the initiator terminate.
func TestCompensateLostUnblocksInitiator(t *testing.T) {
	s := newSim(t)
	a := s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.ruleOn("A", "r1", `A.r(x) <- B.r(x)`)

	sid := "comp-1"
	res, err := a.StartUpdate(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 {
		t.Fatalf("expected one request, got %+v", res.Out)
	}
	// Pretend the send failed: compensate instead of delivering.
	res2 := a.CompensateLost(sid, "B", 1)
	finished := false
	for _, f := range res2.Finished {
		if f.SID == sid && f.Initiator {
			finished = true
		}
	}
	if !finished {
		t.Errorf("compensation did not terminate the session: %+v", res2)
	}
	// Compensating an unknown session is a no-op.
	if out := a.CompensateLost("ghost", "B", 3); len(out.Out) != 0 || len(out.Finished) != 0 {
		t.Errorf("ghost compensation produced output: %+v", out)
	}
}

// TestCompensatedLostCountsEachMessageOnce: a lost send reported after a
// pipe-down already wrote its message off is not counted a second time.
func TestCompensatedLostCountsEachMessageOnce(t *testing.T) {
	s := newSim(t)
	a := s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.ruleOn("A", "r1", `A.r(x) <- B.r(x)`)
	s.ruleOn("A", "r2", `A.r(x) <- C.r(x)`)

	sid := "comp-2"
	res, err := a.StartUpdate(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 2 {
		t.Fatalf("expected requests to B and C, got %+v", res.Out)
	}
	a.CompensatePeerLoss("B")
	a.CompensateLost(sid, "B", 1) // the same request, reported by the outbox
	got := a.CompensatePeerLoss("C").Finished
	if len(got) != 1 || got[0].SID != sid {
		t.Fatalf("session did not finish once both peers were lost: %+v", got)
	}
	if lost := got[0].Report.CompensatedLost; lost != 2 {
		t.Errorf("CompensatedLost = %d, want 2 (one request each to B and C)", lost)
	}
}

// TestReconfigurationDuringUpdate: rules change at a node while an update
// is in flight ("even if nodes and coordination rules appear or disappear
// during the computation, the proposed algorithm will eventually terminate"
// — paper §1). The session must still terminate; the result may reflect
// either topology, but it must be a subset of the old-topology fixpoint
// union the new one.
func TestReconfigurationDuringUpdate(t *testing.T) {
	for deliveries := 0; deliveries < 12; deliveries += 3 {
		s := newSim(t)
		s.addNode("A", "r/1")
		s.addNode("B", "r/1")
		s.addNode("C", "r/1")
		s.rule("r1", `A.r(x) <- B.r(x)`)
		s.rule("r2", `B.r(x) <- C.r(x)`)
		s.seed("B", "r", []int{1})
		s.seed("C", "r", []int{2})

		sid := s.startUpdateNoWait("A")
		// Deliver a few messages, then rip out B's rules mid-session.
		for i := 0; i < deliveries && len(s.queue) > 0; i++ {
			item := s.queue[0]
			s.queue = s.queue[1:]
			res := s.nodes[item.to].Handle(item.env)
			s.dispatch(item.to, res, sidOf(item.env.Payload))
		}
		if err := s.nodes["B"].SetRules(nil); err != nil {
			t.Fatal(err)
		}
		s.run() // must quiesce (the sim fails the test on a stuck queue)
		s.assertFinished("A", sid)
	}
}

// TestRuleAddedDuringUpdate: a rule appearing mid-session does not break
// termination either (its data flows in the next update).
func TestRuleAddedDuringUpdate(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1})
	s.seed("C", "r", []int{2})

	sid := s.startUpdateNoWait("A")
	// Add the B<-C rule while the session is in flight.
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.run()
	s.assertFinished("A", sid)

	// A follow-up update picks up the new edge.
	s.update("A")
	if !s.instanceOf("A").Has("r", intRow(2)) {
		t.Error("second update missed the late rule's data")
	}
}

// TestReportsRingBuffer: the per-node report store is bounded.
func TestReportsRingBuffer(t *testing.T) {
	s := newSim(t)
	s.addNodeCfg(Config{Self: "A", MaxReports: 3}, "r/1")
	for i := 0; i < 5; i++ {
		s.update("A")
	}
	reports := s.nodes["A"].Reports()
	if len(reports) != 3 {
		t.Errorf("reports retained = %d, want 3", len(reports))
	}
}

// TestActiveSessionsListing: unfinished sessions are visible, finished ones
// are not.
func TestActiveSessionsListing(t *testing.T) {
	s := newSim(t)
	a := s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.ruleOn("A", "r1", `A.r(x) <- B.r(x)`)
	if _, err := a.StartUpdate("visible"); err != nil {
		t.Fatal(err)
	}
	// Not yet delivered/finished: the session is active.
	if got := a.ActiveSessions(); len(got) != 1 || got[0] != "visible" {
		t.Errorf("ActiveSessions = %v", got)
	}
}
