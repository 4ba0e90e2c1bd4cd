package core

import (
	"fmt"
	"math/rand"
	"testing"

	"codb/internal/msg"
)

// TestQueryLinksShipEachBindingOnce: on a query session no link ships a
// binding twice — the paper's "we delete from Ri those tuples which have
// been already sent" — whether the link keeps a sent cache (a projection
// that drops a variable) or relies on the invariant that lets an injective
// one-atom link go without one. The topologies give a tuple two paths to a
// peer: a diamond, where B and C both relay D to A, and a ring with links
// both ways round, under shuffled delivery. On the diamond the lossy link
// A -> O is bound to need its cache: B holds b(1, 2) and C holds b(1, 3),
// which reach A in different messages and both bind x = 1.
func TestQueryLinksShipEachBindingOnce(t *testing.T) {
	diamond := func(s *sim) (origin string) {
		for _, n := range []string{"O", "A", "B", "C", "D"} {
			s.addNode(n, "u/1", "b/2")
		}
		s.rule("o1", `O.b(x, y) <- A.b(x, y)`)
		s.rule("o2", `O.u(x) <- A.b(x, y)`)
		s.rule("o3", `O.u(x) <- A.u(x)`)
		s.rule("a1", `A.b(x, y) <- B.b(x, y)`)
		s.rule("a2", `A.b(y, x) <- C.b(x, y)`)
		s.rule("a3", `A.u(x) <- B.b(x, y)`)
		s.rule("a4", `A.b(x, 0) <- C.b(x, 0)`)
		s.rule("b1", `B.b(x, y) <- D.b(x, y)`)
		s.rule("c1", `C.b(x, y) <- D.b(x, y)`)
		s.seed("B", "b", []int{1, 2})
		s.seed("C", "b", []int{3, 1})
		return "O"
	}
	ring := func(s *sim) (origin string) {
		const n = 5
		name := func(i int) string { return fmt.Sprintf("N%d", (i+n)%n) }
		for i := 0; i < n; i++ {
			s.addNode(name(i), "u/1", "b/2")
		}
		for i := 0; i < n; i++ {
			s.rule(fmt.Sprintf("cw%d", i), fmt.Sprintf(`%s.b(x, y) <- %s.b(x, y)`, name(i), name(i+1)))
			s.rule(fmt.Sprintf("ccw%d", i), fmt.Sprintf(`%s.b(x, y) <- %s.b(x, y)`, name(i), name(i-1)))
			s.rule(fmt.Sprintf("lossy%d", i), fmt.Sprintf(`%s.u(x) <- %s.b(x, y)`, name(i), name(i+1)))
		}
		return name(0)
	}
	for _, topo := range []struct {
		name  string
		build func(*sim) string
	}{{"diamond", diamond}, {"ring", ring}} {
		for seed := int64(0); seed < 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", topo.name, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				s := newSim(t)
				s.rnd = rand.New(rand.NewSource(seed ^ 0x5e11))
				origin := topo.build(s)
				for name := range s.nodes {
					if name == origin {
						continue
					}
					for i, k := 0, rnd.Intn(6); i < k; i++ {
						s.seed(name, "b", []int{rnd.Intn(4), rnd.Intn(4)})
					}
				}
				shipped := make(map[string]bool) // sid | exporter | rule | binding
				repeats := 0
				s.observe = func(to string, env msg.Envelope) {
					d, ok := env.Payload.(*msg.SessionData)
					if !ok {
						return
					}
					for _, b := range d.Bindings {
						k := d.SID + "|" + env.From + "|" + d.RuleID + "|" + b.Key()
						if shipped[k] {
							repeats++
							t.Errorf("%s shipped %v on %s to %s twice", env.From, b, d.RuleID, to)
						}
						shipped[k] = true
					}
				}
				for _, q := range []string{`ans(x, y) :- b(x, y)`, `ans(x) :- u(x)`} {
					if got := s.query(origin, q, AllAnswers); len(got) == 0 {
						t.Fatalf("%s answered nothing", q)
					}
				}
				if len(shipped) == 0 || repeats > 0 {
					t.Fatalf("%d bindings shipped, %d of them again", len(shipped), repeats)
				}
			})
		}
	}
}
