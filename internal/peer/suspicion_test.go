package peer

import (
	"testing"
	"time"
)

// fakeClock drives the suspicion machine without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func expectTick(t *testing.T, s *suspicion, wantSuspects, wantDowns []string) {
	t.Helper()
	suspects, downs := s.tick(nil)
	if len(suspects) != len(wantSuspects) || (len(suspects) > 0 && suspects[0] != wantSuspects[0]) {
		t.Fatalf("tick suspects = %v, want %v", suspects, wantSuspects)
	}
	if len(downs) != len(wantDowns) || (len(downs) > 0 && downs[0] != wantDowns[0]) {
		t.Fatalf("tick downs = %v, want %v", downs, wantDowns)
	}
}

// The full lifecycle, including a flap: alive → suspect → alive (traffic
// resumed, no heal owed) → suspect → down → heal. Counters record every
// transition.
func TestSuspicionLifecycleAndFlap(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(time.Second, clock.now)
	s.track("b")

	expectTick(t, s, nil, nil) // fresh peer: alive
	clock.advance(time.Second)
	expectTick(t, s, []string{"b"}, nil) // one timeout of silence: suspect
	expectTick(t, s, nil, nil)           // transition fires once

	// Flap: traffic resumes while suspect. Not a heal — nothing was torn
	// down yet, so nothing is owed.
	if s.observe("b") {
		t.Error("suspect -> alive reported as a heal")
	}
	clock.advance(999 * time.Millisecond)
	expectTick(t, s, nil, nil) // silence below the timeout again
	clock.advance(time.Millisecond)
	expectTick(t, s, []string{"b"}, nil) // suspect a second time
	clock.advance(time.Second)
	expectTick(t, s, nil, []string{"b"}) // two timeouts of silence: down

	// Redial pacing: down stamps lastDial, so the first redial waits one
	// full timeout, and each attempt re-arms the pacing.
	if due := s.redialDue(); len(due) != 0 {
		t.Errorf("redial due immediately after down: %v", due)
	}
	clock.advance(time.Second)
	if due := s.redialDue(); len(due) != 1 || due[0] != "b" {
		t.Errorf("redialDue = %v, want [b]", due)
	}
	if due := s.redialDue(); len(due) != 0 {
		t.Errorf("redialDue re-fired without pacing: %v", due)
	}

	// Traffic from a down peer is a heal.
	if !s.observe("b") {
		t.Error("down -> alive not reported as a heal")
	}
	if st := s.states(); st["b"] != "alive" {
		t.Errorf("state after heal = %q", st["b"])
	}
	if s.suspects != 2 || s.downs != 1 || s.heals != 1 {
		t.Errorf("counters = %d suspects, %d downs, %d heals; want 2, 1, 1",
			s.suspects, s.downs, s.heals)
	}
}

// A transport pipe-down report forces straight to down, idempotently.
func TestSuspicionNoteDown(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(time.Second, clock.now)
	s.track("c")
	s.noteDown("c")
	s.noteDown("c")
	if s.downs != 1 {
		t.Errorf("downs = %d after idempotent noteDown, want 1", s.downs)
	}
	if st := s.states(); st["c"] != "down" {
		t.Errorf("state = %q, want down", st["c"])
	}
	if !s.observe("c") {
		t.Error("recovery from a forced down not reported as a heal")
	}
}

// Exempt peers (heartbeat-less transports) are never judged by
// silence: each tick resets their timer instead.
func TestSuspicionExemptPeersNeverSuspected(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(time.Second, clock.now)
	s.track("exempt")
	s.track("judged")
	exempt := func(peer string) bool { return peer == "exempt" }
	for i := 0; i < 5; i++ {
		clock.advance(time.Second)
		suspects, downs := s.tick(exempt)
		for _, p := range append(suspects, downs...) {
			if p == "exempt" {
				t.Fatalf("exempt peer judged by silence at tick %d", i)
			}
		}
	}
	st := s.states()
	if st["exempt"] != "alive" {
		t.Errorf("exempt peer state = %q, want alive", st["exempt"])
	}
	if st["judged"] != "down" {
		t.Errorf("silent judged peer state = %q, want down", st["judged"])
	}
}

// forget drops a tombstoned peer from tracking entirely.
func TestSuspicionForget(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(time.Second, clock.now)
	s.track("gone")
	s.forget("gone")
	if st := s.states(); len(st) != 0 {
		t.Errorf("states after forget = %v", st)
	}
	clock.advance(10 * time.Second)
	expectTick(t, s, nil, nil)
	if due := s.redialDue(); len(due) != 0 {
		t.Errorf("forgotten peer still redialed: %v", due)
	}
}
