package core

import (
	"fmt"
	"reflect"
	"testing"

	"codb/internal/msg"
)

// TestMessagesPerHop pins the protocol's traffic: over a copy-rule chain
// whose tail holds the data, every kind of session costs each hop exactly
// one request, one data message, the two acknowledgements of those basic
// messages, and one completion notice.
func TestMessagesPerHop(t *testing.T) {
	perHop := map[string]int{"SessionRequest": 1, "SessionData": 1, "SessionAck": 2, "SessionDone": 1}
	sessions := []struct {
		kind string
		run  func(s *sim)
	}{
		{"update", func(s *sim) { s.update("N0") }},
		{"query", func(s *sim) {
			if got := s.query("N0", `ans(x) :- r(x)`, AllAnswers); len(got) != 1 {
				t.Fatalf("query answered %v, want the tail's one tuple", got)
			}
		}},
		{"scoped", func(s *sim) { s.scopedUpdate("N0", "r") }},
	}
	for _, nodes := range []int{2, 4, 8} {
		for _, session := range sessions {
			t.Run(fmt.Sprintf("%s/nodes=%d", session.kind, nodes), func(t *testing.T) {
				s := newSim(t)
				for i := 0; i < nodes; i++ {
					s.addNode(fmt.Sprintf("N%d", i), "r/1")
				}
				for i := 0; i+1 < nodes; i++ {
					s.rule(fmt.Sprintf("r%d", i), fmt.Sprintf(`N%d.r(x) <- N%d.r(x)`, i, i+1))
				}
				s.seed(fmt.Sprintf("N%d", nodes-1), "r", []int{7})

				got := make(map[string]int)
				s.observe = func(_ string, env msg.Envelope) {
					tag, err := msg.TagOf(env.Payload)
					if err != nil {
						t.Fatal(err)
					}
					got[tag.String()]++
				}
				session.run(s)

				hops := nodes - 1
				want := make(map[string]int)
				for name, n := range perHop {
					want[name] = n * hops
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d hops sent %v, want %v (%v per hop)", hops, got, want, perHop)
				}
			})
		}
	}
}
