package peer

import (
	"testing"

	"codb/internal/transport"
)

// TestStartPullSkipsUnknownLinks: a pull over several links, one of which
// is not (or no longer) an outgoing link, still pulls the others and keeps
// the pulls already in flight; the unknown link is reported as an error.
func TestStartPullSkipsUnknownLinks(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	for _, p := range []*Peer{a, b} {
		if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}

	var first, second []*pullSession
	var err error
	if derr := a.do(func() {
		first, _ = a.startPull([]string{"r1"})
		// The first pull cannot finish before the loop turns again.
		second, err = a.startPull([]string{"r1", "gone"})
	}); derr != nil {
		t.Fatal(derr)
	}
	if err == nil {
		t.Error("pulling an unknown link reported no error")
	}
	if len(first) != 1 || len(second) != 1 || second[0] != first[0] {
		t.Fatalf("pulls %v then %v; want the second to join the first", first, second)
	}
	if n, err := a.awaitPulls(ctxT(t), second); err != nil || n != 2 {
		t.Fatalf("the pull materialised %d tuples (err %v), want 2", n, err)
	}
}
