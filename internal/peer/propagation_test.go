package peer

import (
	"fmt"
	"testing"
	"time"

	"codb/internal/config"
	"codb/internal/core"
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

	var first, second []*waiter
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

// adaptivePair builds an importer A and an exporter B over the link r1
// (A.r <- B.r), both with r1's policy set to mode.
func adaptivePair(t *testing.T, mode string) (a, b *Peer) {
	t.Helper()
	bus := transport.NewBus()
	a = newBusPeer(t, bus, "A", "r/1", "s/1")
	b = newBusPeer(t, bus, "B", "r/1", "s/1")
	for _, p := range []*Peer{a, b} {
		if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
			t.Fatal(err)
		}
		if err := p.SetLinkPolicy("r1", mode, ""); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// linkStats returns p's propagation counters of one rule.
func linkStats(p *Peer, id string) core.LinkPropagationStats {
	for _, l := range p.PropagationStats().Links {
		if l.RuleID == id {
			return l
		}
	}
	return core.LinkPropagationStats{RuleID: id}
}

// updateAt inserts one fresh row into B.r and runs an update from B.
func updateAt(t *testing.T, b *Peer, v int) {
	t.Helper()
	if err := b.Insert("r", ints(v)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
}

// demote pushes unread updates down B's adaptive r1 until A has demoted it
// and B acts on the demotion.
func demote(t *testing.T, a, b *Peer) {
	t.Helper()
	for v := 1; v <= coldDeliveries; v++ {
		updateAt(t, b, v)
	}
	waitFor(t, "B to demote r1", func() bool { return linkStats(b, "r1").Effective == "pull" })
}

// TestAdaptiveDemotionSurvivesReconfiguration: an adaptive link the
// importer demoted stays pull at the exporter when the exporter's rule set
// changes around it — an unrelated AddRule, then a configuration holding
// the same link — so the updates nobody reads push nothing down it.
func TestAdaptiveDemotionSurvivesReconfiguration(t *testing.T) {
	a, b := adaptivePair(t, "adaptive")
	demote(t, a, b)

	if err := b.AddRule("r2", `A.s(x) <- B.s(x)`); err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Parse("version 2\nnode A\n  rel r(x int)\n  rel s(x int)\nend\nnode B\n  rel r(x int)\n  rel s(x int)\nend\n" +
		"rule r1: A.r(x) <- B.r(x)\nrule r2: A.s(x) <- B.s(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyConfig(cfg, 2); err != nil {
		t.Fatal(err)
	}
	if got := linkStats(b, "r1").Effective; got != "pull" {
		t.Errorf("r1 at B after the reconfiguration: effective %s, want pull", got)
	}
	pushed := linkStats(b, "r1").BytesPushed
	for v := 10; v < 16; v++ {
		updateAt(t, b, v)
	}
	if got := linkStats(b, "r1").BytesPushed - pushed; got != 0 {
		t.Fatalf("the demoted link pushed %d B over 6 unread updates, want 0", got)
	}
}

// TestReadPromotesDemotedLink: a read at the importer that touches a
// demoted adaptive link promotes it back to push at the exporter.
func TestReadPromotesDemotedLink(t *testing.T) {
	a, b := adaptivePair(t, "adaptive")
	demote(t, a, b)

	if _, err := prepared(t, a, `ans(x) :- r(x)`).LocalQuery(core.AllAnswers); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B to promote r1", func() bool { return linkStats(b, "r1").Effective == "push" })
	pushed := linkStats(b, "r1").BytesPushed
	updateAt(t, b, 10)
	if linkStats(b, "r1").BytesPushed == pushed {
		t.Fatal("the promoted link pushed nothing")
	}
}

// TestReconfigurationDropsStaleLink: a reconfiguration at the importer that
// drops a hinted pull link drops its staleness record and its deadline
// with it; the link declared again starts fresh, and no deadline armed
// for the old record pulls it.
func TestReconfigurationDropsStaleLink(t *testing.T) {
	a, b := adaptivePair(t, "pull")
	const deadline = 500 * time.Millisecond
	if err := a.do(func() { a.maxStaleness = deadline }); err != nil {
		t.Fatal(err)
	}
	updateAt(t, b, 1)
	waitFor(t, "r1 stale at A", func() bool { return len(a.StaleLinks()) == 1 })

	apply := func(version int, rules string) {
		t.Helper()
		cfg, err := config.Parse(fmt.Sprintf("version %d\nnode A\n  rel r(x int)\n  rel s(x int)\nend\nnode B\n  rel r(x int)\n  rel s(x int)\nend\n%s", version, rules))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ApplyConfig(cfg, version); err != nil {
			t.Fatal(err)
		}
	}
	apply(2, "rule r2: A.s(x) <- B.s(x)\n")
	if stale := a.StaleLinks(); len(stale) != 0 {
		t.Fatalf("stale links after r1 was dropped: %v", stale)
	}
	apply(3, "rule r1: A.r(x) <- B.r(x)\nrule r2: A.s(x) <- B.s(x)\n")
	time.Sleep(2 * deadline)
	if st := linkStats(a, "r1"); st.PullsIssued != 0 {
		t.Fatalf("r1 declared again was pulled %d times by a dropped deadline", st.PullsIssued)
	}
}
