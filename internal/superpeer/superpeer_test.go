package superpeer

import (
	"context"
	"strings"
	"testing"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

const netCfg = `version 1
node A
  rel r(x int)
end
node B
  rel r(x int)
end
node C
  rel r(x int)
end
rule r1: A.r(x) <- B.r(x)
rule r2: B.r(x) <- C.r(x)
`

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func buildNetwork(t *testing.T) (*transport.Bus, map[string]*peer.Peer, *SuperPeer) {
	t.Helper()
	bus := transport.NewBus()
	peers := make(map[string]*peer.Peer)
	for _, name := range []string{"A", "B", "C"} {
		p, err := peer.New(peer.Options{
			Name:      name,
			Transport: bus.MustJoin(name),
			Wrapper:   core.NewStoreWrapper(storage.MustOpenMem()),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		peers[name] = p
	}
	sp, err := New(Options{Transport: bus.MustJoin("super")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Stop)
	// The super-peer needs to know the peers exist (the bus resolves by
	// name; an empty address suffices).
	sp.Peer().SetDirectory(map[string]string{"A": "", "B": "", "C": ""})
	return bus, peers, sp
}

func waitRules(t *testing.T, p *peer.Peer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Rules()) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("peer %s never got %d rules (has %d)", p.Name(), want, len(p.Rules()))
}

func TestBroadcastInstallsRulesAndSchemas(t *testing.T) {
	_, peers, sp := buildNetwork(t)
	cfg, err := config.Parse(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetConfig(cfg)
	if err := sp.Broadcast(); err != nil {
		t.Fatal(err)
	}
	waitRules(t, peers["A"], 1)
	waitRules(t, peers["B"], 2)
	waitRules(t, peers["C"], 1)
	if peers["A"].Schema().Rel("r") == nil {
		t.Error("broadcast did not define A's schema")
	}
	// The super-peer's own wrapper accepts DDL like any mediator's, but the
	// configuration declares no node of its name: the flood coming back
	// defines nothing there.
	if names := sp.Peer().Schema().Names(); len(names) != 0 {
		t.Errorf("broadcast defined relations %v at the super-peer", names)
	}
}

func TestSuperDrivenUpdateAndStats(t *testing.T) {
	_, peers, sp := buildNetwork(t)
	cfg, _ := config.Parse(netCfg)
	sp.SetConfig(cfg)
	if err := sp.Broadcast(); err != nil {
		t.Fatal(err)
	}
	waitRules(t, peers["B"], 2)
	peers["C"].Insert("r", relation.Tuple{relation.Int(1)}, relation.Tuple{relation.Int(2)})

	rep, err := sp.StartUpdate(ctxT(t), "A")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Origin != "A" {
		t.Errorf("report origin = %s", rep.Origin)
	}
	if peers["A"].Count("r") != 2 {
		t.Errorf("A.r = %d, want 2", peers["A"].Count("r"))
	}

	// The completion flood reaches the last nodes asynchronously; the
	// super-peer "can collect, at any given time" (paper §4), so poll
	// until every node's report includes the finished session.
	var aggs []Aggregate
	deadline := time.Now().Add(10 * time.Second)
	for {
		byNode, err := sp.CollectStats(ctxT(t), 3)
		if err != nil {
			t.Fatal(err)
		}
		aggs = AggregateSessions(byNode)
		if len(aggs) == 1 && aggs[0].Nodes == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregates never complete: %+v", aggs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	a := aggs[0]
	if a.Nodes != 3 || a.TotalMsgs == 0 || a.NewTuples != 4 || a.LongestPath != 2 {
		t.Errorf("aggregate = %+v", a)
	}
	out := Render(aggs)
	if !strings.Contains(out, "A") || !strings.Contains(out, "update") {
		t.Errorf("render = %q", out)
	}
}

func TestRuntimeTopologyChange(t *testing.T) {
	_, peers, sp := buildNetwork(t)
	cfg1, _ := config.Parse(netCfg)
	sp.SetConfig(cfg1)
	sp.Broadcast()
	waitRules(t, peers["B"], 2)

	// New topology: A now imports directly from C; B drops out.
	cfg2, err := config.Parse(`version 2
node A
  rel r(x int)
end
node B
  rel r(x int)
end
node C
  rel r(x int)
end
rule rx: A.r(x) <- C.r(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetConfig(cfg2)
	if err := sp.Broadcast(); err != nil {
		t.Fatal(err)
	}
	waitRules(t, peers["A"], 1)
	waitRules(t, peers["B"], 0)
	waitRules(t, peers["C"], 1)

	peers["C"].Insert("r", relation.Tuple{relation.Int(9)})
	if _, err := sp.StartUpdate(ctxT(t), "A"); err != nil {
		t.Fatal(err)
	}
	if peers["A"].Count("r") != 1 {
		t.Errorf("A.r = %d after reconfig update", peers["A"].Count("r"))
	}
	if peers["B"].Count("r") != 0 {
		t.Errorf("B.r = %d; B should be out of the loop", peers["B"].Count("r"))
	}
}

func TestBroadcastWithoutConfigFails(t *testing.T) {
	bus := transport.NewBus()
	sp, err := New(Options{Transport: bus.MustJoin("super")})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()
	if err := sp.Broadcast(); err == nil {
		t.Error("broadcast without config accepted")
	}
	if sp.Config() != nil {
		t.Error("Config should be nil")
	}
}

// A failed Broadcast (no configuration) must not burn a version number:
// peers dedup broadcasts by version, so burnt numbers create gaps and make
// a later genuine broadcast carry a higher version than anything actually
// shipped. The first real broadcast after n failures must carry the
// configuration's version + 1, not + n + 1.
func TestFailedBroadcastDoesNotBurnVersion(t *testing.T) {
	_, peers, sp := buildNetwork(t)
	for i := 0; i < 3; i++ {
		if err := sp.Broadcast(); err == nil {
			t.Fatal("broadcast without config accepted")
		}
	}
	sp.mu.Lock()
	burnt := sp.version
	sp.mu.Unlock()
	if burnt != 0 {
		t.Fatalf("failed broadcasts burnt %d version numbers", burnt)
	}
	cfg, err := config.Parse(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	sp.SetConfig(cfg)
	if err := sp.Broadcast(); err != nil {
		t.Fatal(err)
	}
	sp.mu.Lock()
	shipped := sp.version
	sp.mu.Unlock()
	if shipped != cfg.Version+1 {
		t.Fatalf("first real broadcast shipped version %d, want %d", shipped, cfg.Version+1)
	}
	waitRules(t, peers["B"], 2)
}

func TestCollectStatsTimeout(t *testing.T) {
	_, _, sp := buildNetwork(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Expect more nodes than exist: must time out but return what arrived.
	_, err := sp.CollectStats(ctx, 99)
	if err == nil {
		t.Error("expected timeout error")
	}
}

func TestStartUpdateUnknownOrigin(t *testing.T) {
	bus := transport.NewBus()
	sp, err := New(Options{Transport: bus.MustJoin("super")})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Stop()
	if _, err := sp.StartUpdate(ctxT(t), "nope"); err == nil {
		t.Error("update at unknown origin accepted")
	}
}

func TestAggregateSessionsEmpty(t *testing.T) {
	if got := AggregateSessions(nil); len(got) != 0 {
		t.Errorf("aggregates of nothing = %v", got)
	}
	if out := Render(nil); !strings.Contains(out, "session") {
		t.Errorf("header missing: %q", out)
	}
}

var _ = msg.KindUpdate
