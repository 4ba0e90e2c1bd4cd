package codb

import (
	"context"
	"sync"
	"testing"
	"time"

	"codb/internal/transport"
)

// partitionedNetwork builds a TCP star (hub "a" importing from leaves "b"
// and "c") with the suspicion detector on and every peer's transport wrapped
// in a fault injector.
func partitionedNetwork(t *testing.T, timeout time.Duration) (*Network, map[string]*transport.Partitioner) {
	t.Helper()
	parts := make(map[string]*transport.Partitioner)
	var pmu sync.Mutex
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{
			TCP: true,
			Wrap: func(node string, tr transport.Transport) transport.Transport {
				f := transport.NewPartitioner(tr)
				pmu.Lock()
				parts[node] = f
				pmu.Unlock()
				return f
			},
		},
		Suspicion: SuspicionGroup{Timeout: timeout},
	})
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddPeer("c", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	nw.MustAddRule("r2", `a.r(x) <- c.r(x)`)
	return nw, parts
}

// expectTuples asserts the hub materialised exactly the values 0..n-1.
func expectTuples(t *testing.T, p *Peer, n int) {
	t.Helper()
	rows := p.Tuples("r")
	if len(rows) != n {
		t.Fatalf("hub has %d tuples, want %d", len(rows), n)
	}
	seen := make(map[int64]bool, len(rows))
	for _, row := range rows {
		seen[row[0].Int] = true
	}
	for i := 0; i < n; i++ {
		if !seen[int64(i)] {
			t.Fatalf("hub is missing value %d", i)
		}
	}
}

// waitMembership polls the hub's failure-detector snapshot until cond holds.
func waitMembership(t *testing.T, p *Peer, what string, cond func(MembershipStats) bool) MembershipStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.MembershipStats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; membership = %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPartitionHealStress is the partition/heal scenario end to end: a leaf
// is partitioned from the star under continuing update traffic. The hub's
// detector must suspect and then declare the leaf down (sessions terminate
// by compensation, not by hanging), the partition must never surface as a
// failed dial against the TCP transport, and after the heal the leaf's
// missed delta must flow so the hub converges to the complete extent.
func TestPartitionHealStress(t *testing.T) {
	const timeout = 250 * time.Millisecond
	nw, parts := partitionedNetwork(t, timeout)
	defer nw.Close()
	hub := nw.Peer("a")

	next := 0
	insertBoth := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := nw.Insert("b", "r", Row(Int(next))); err != nil {
				t.Fatal(err)
			}
			next++
			if err := nw.Insert("c", "r", Row(Int(next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}

	// A healthy round establishes the pipes and export watermarks.
	insertBoth(10)
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	expectTuples(t, hub, next)

	// Partition c away from the star, symmetrically: silence in both
	// directions, exactly as a real partition presents.
	parts["c"].Partition("a", "b")
	parts["a"].Partition("c")
	parts["b"].Partition("c")
	partStart := time.Now()

	// The silence is noticed within twice the timeout: one timeout of it,
	// plus at most one scan interval.
	waitMembership(t, hub, "leaf suspected", func(st MembershipStats) bool {
		return st.States["c"] == "suspect" || st.States["c"] == "down"
	})
	if took := time.Since(partStart); took > 2*timeout {
		t.Errorf("leaf suspected %v after the partition, want within %v", took, 2*timeout)
	}

	// Update traffic continues through the partition. The leaf keeps
	// committing locally; every hub session must terminate without error,
	// written off by the detector rather than hung on stranded acks.
	preHeal := 0
	for round := 0; round < 3; round++ {
		insertBoth(3)
		if _, err := nw.Update(ctxT(t), "a"); err != nil {
			t.Fatalf("update during partition: %v", err)
		}
		if round == 0 {
			st := waitMembership(t, hub, "leaf down", func(st MembershipStats) bool {
				return st.States["c"] == "down"
			})
			t.Logf("partition detected in %v (timeout %v): %+v", time.Since(partStart), timeout, st)
			preHeal = hub.Count("r")
		}
	}
	if got := hub.Count("r"); got <= preHeal-1 {
		t.Fatalf("hub lost ground during partition: %d", got)
	}

	// The injected partition must never count as a transport dial failure:
	// redials while down fail inside the injector, below the TCP counters.
	for _, name := range []string{"a", "b", "c"} {
		if n, ok := nw.Peer(name).DialFailures(); ok && n != 0 {
			t.Errorf("%s recorded %d dial failures during the partition, want 0", name, n)
		}
	}
	if out, in := parts["a"].Dropped(); out == 0 && in == 0 {
		t.Error("the hub's injector dropped nothing — the partition never bit")
	}

	// Heal. The paced redial (or the leaf's own) re-pipes, the directory
	// delta re-exchanges, and catch-up runs from the durable watermarks.
	for _, f := range parts {
		f.Heal()
	}
	waitMembership(t, hub, "leaf healed", func(st MembershipStats) bool {
		return st.States["c"] == "alive" && st.Heals >= 1
	})

	// Post-heal convergence: between the heal's own catch-up (asynchronous —
	// the heal counter ticks when traffic resumes, while catch-up data may
	// still be in flight) and the next session, the hub converges on exactly
	// what the partition withheld plus the new round.
	insertBoth(3)
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatalf("post-heal update: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Count("r") != next && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	expectTuples(t, hub, next)

	st := hub.MembershipStats()
	if st.Suspects == 0 || st.Downs == 0 || st.Heals == 0 {
		t.Errorf("detector transitions = %+v, want at least one suspect, down and heal", st)
	}
	if st.Tombstones != 0 {
		t.Errorf("partition produced %d tombstones, want 0 (suspicion must not tombstone)", st.Tombstones)
	}
}

// TestLostPullDataReExported loses the data a pull ships: over a TCP pull
// link a <- b, b's reply to a's pull is dropped, then the pipe goes down both
// ways. The pull must fail rather than report success, and after the heal a
// catch-up must bring a level with b — the exporter may not go on believing
// a holds what it shipped into the dead pipe.
func TestLostPullDataReExported(t *testing.T) {
	const timeout = 200 * time.Millisecond
	parts := make(map[string]*transport.Partitioner)
	var pmu sync.Mutex
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{
			TCP: true,
			Wrap: func(node string, tr transport.Transport) transport.Transport {
				f := transport.NewPartitioner(tr)
				pmu.Lock()
				parts[node] = f
				pmu.Unlock()
				return f
			},
		},
		Suspicion:   SuspicionGroup{Timeout: timeout},
		Propagation: PropagationGroup{Policies: map[string]string{"r1": "pull"}},
	})
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)

	const rows = 20
	for i := 0; i < rows; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	a, b := nw.Peer("a"), nw.Peer("b")
	b.FlushOutbox()

	// b serves a's pull, and its reply vanishes.
	parts["b"].BlockOutbound("a")
	pulled := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := a.PullLink(ctx, "r1")
		pulled <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, _ := nw.PeerPropagationStats("b")
		if len(st.Links) == 1 && st.Links[0].PullsServed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never served the pull: %+v", st)
		}
	}

	// Then the pipe goes down.
	parts["a"].Partition("b")
	parts["b"].Partition("a")
	waitMembership(t, a, "b down", func(st MembershipStats) bool { return st.States["b"] == "down" })
	waitMembership(t, b, "a down", func(st MembershipStats) bool { return st.States["a"] == "down" })
	if err := <-pulled; err == nil {
		t.Error("a pull whose data was lost reported success")
	}

	for _, f := range parts {
		f.Heal()
	}
	waitMembership(t, a, "b healed", func(st MembershipStats) bool {
		return st.States["b"] == "alive" && st.Heals >= 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := nw.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	expectTuples(t, a, rows)
}

// restartDurablePeer crash-stops a durable peer and brings a fresh
// incarnation up over the same directory and listen address.
func restartDurablePeer(t *testing.T, nw *Network, name, dir string) *Peer {
	t.Helper()
	p, err := nw.RestartDurablePeer(name, dir)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRollingRestartUnderUpdateLoad: the durable leaves of a star restart
// one at a time — crash-stop, reopen over their own directories on the same
// address — while the hub keeps initiating updates. Every session must
// complete (loss is written off by the pipe-down report and healed by the
// next round's traffic), no dial may exhaust its retries, and the final
// extent must be byte-identical to an unbroken run: the restarted exporters
// resume from their durable watermarks.
func TestRollingRestartUnderUpdateLoad(t *testing.T) {
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{TCP: true},
		Suspicion: SuspicionGroup{Timeout: time.Second},
	})
	defer nw.Close()
	for name, dir := range map[string]string{"a": dirA, "b": dirB, "c": dirC} {
		if _, err := nw.AddDurablePeer(name, dir, "r(x int)"); err != nil {
			t.Fatal(err)
		}
	}
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	nw.MustAddRule("r2", `a.r(x) <- c.r(x)`)

	next := 0
	insertBoth := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := nw.Insert("b", "r", Row(Int(next))); err != nil {
				t.Fatal(err)
			}
			next++
			if err := nw.Insert("c", "r", Row(Int(next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}

	for round := 0; round < 8; round++ {
		insertBoth(4)
		if _, err := nw.Update(ctxT(t), "a"); err != nil {
			t.Fatalf("update round %d: %v", round, err)
		}
		// Restarts land between sessions; the next round's traffic runs
		// against a peer the hub still believes is down, and heals it.
		switch round {
		// The wait must precede the rule re-add: re-declaring the rule
		// re-pipes both endpoints, which supersedes a pipe-down still in
		// flight (a live pipe means nothing needs writing off).
		case 2:
			restartDurablePeer(t, nw, "b", dirB)
			waitMembership(t, nw.Peer("a"), "b noted down", func(st MembershipStats) bool {
				return st.Downs >= 1
			})
			nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
		case 5:
			restartDurablePeer(t, nw, "c", dirC)
			waitMembership(t, nw.Peer("a"), "c noted down", func(st MembershipStats) bool {
				return st.Downs >= 2
			})
			nw.MustAddRule("r2", `a.r(x) <- c.r(x)`)
		}
	}

	// Byte identity: the hub holds exactly the values 0..next-1, nothing
	// lost across either restart.
	expectTuples(t, nw.Peer("a"), next)

	// Zero stale dials: every redial found a listener (the restarts reuse
	// their address, and nobody dialed into the gap past its retries).
	for _, name := range []string{"a", "b", "c"} {
		if n, ok := nw.Peer(name).DialFailures(); ok && n != 0 {
			t.Errorf("%s recorded %d exhausted dials across the rolling restart, want 0", name, n)
		}
	}

	// The hub saw both restarts as pipe-downs and healed both.
	st := nw.Peer("a").MembershipStats()
	if st.Downs < 2 || st.Heals < 2 {
		t.Errorf("hub detector saw %d downs and %d heals, want >= 2 each: %+v", st.Downs, st.Heals, st)
	}
	if st.Tombstones != 0 {
		t.Errorf("rolling restart produced %d tombstones, want 0", st.Tombstones)
	}
}
