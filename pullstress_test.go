package codb

// Race-stress test for the lazy propagation layer: a chain of pull links
// runs hint floods (every update invalidates downstream links), concurrent
// explicit pulls, read-triggered pulls, and a checkpoint storm all against
// the same databases — with changelog rings far smaller than the traffic,
// so every pull is served across the changelog-spill window that the
// checkpoints keep rewriting. Exactly the interleavings the propagation
// state machine (stale marks, in-flight dedup, waiter wakeup) and the
// exporter's persistent watermarks must survive. Run under -race in CI.

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPullHintCheckpointRaceStress(t *testing.T) {
	nw := NewNetworkWithOptions(NetworkOptions{
		Storage: StorageGroup{ChangelogLimit: 6, SegmentBytes: 256},
		Propagation: PropagationGroup{
			Policies: map[string]string{"r1": "pull", "r2": "pull"},
		},
	})
	defer nw.Close()
	names := []string{"A", "B", "C"}
	for _, name := range names {
		if _, err := nw.AddDurablePeer(name, t.TempDir(), "data(k int, v int)"); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct{ id, text string }{
		{"r1", "A.data(k, v) <- B.data(k, v)"},
		{"r2", "B.data(k, v) <- C.data(k, v)"},
	} {
		if err := nw.AddRule(r.id, r.text); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Checkpoint storm: every database rewrites its durable state as fast
	// as it can, racing the spill-served Changes scans that pulls run and
	// the watermark marks that serving a pull commits.
	checkpoints := make([]atomic.Int64, len(names))
	for i, name := range names {
		db := nw.dbs[name]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint %s: %v", names[i], err)
					return
				}
				checkpoints[i].Add(1)
			}
		}(i)
	}

	// Explicit pullers: both importers hammer their pull link directly,
	// racing each other, the read-triggered pulls, and the hint floods
	// over the same in-flight dedup window.
	pulls := make([]atomic.Int64, 2)
	for i, pl := range []struct{ node, rule string }{{"A", "r1"}, {"B", "r2"}} {
		wg.Add(1)
		go func(i int, node, rule string) {
			defer wg.Done()
			p := nw.Peer(node)
			for !stop.Load() {
				if _, err := p.PullLink(ctxT(t), rule); err != nil {
					t.Errorf("pull %s at %s: %v", rule, node, err)
					return
				}
				pulls[i].Add(1)
			}
		}(i, pl.node, pl.rule)
	}

	// Readers: local queries at the importers take the beforeRead hook,
	// turning every stale mark into a synchronous read-triggered pull that
	// races the explicit pullers for the same waiters.
	for _, node := range []string{"A", "B"} {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := nw.LocalQuery(node, `ans(k) :- data(k, v), v >= 0`, AllAnswers); err != nil {
					t.Errorf("reader %s: %v", node, err)
					return
				}
			}
		}(node)
	}

	// Hint floods: updates at the chain's head invalidate r2 (and, as the
	// pulls cascade, r1) over and over while everything above is running.
	const rounds = 12
	for round := 0; round < rounds; round++ {
		rows := make([]Tuple, 10)
		for j := range rows {
			rows[j] = Row(Int(round*1_000+j), Int(round))
		}
		if err := nw.Insert("C", "data", rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Update(ctxT(t), "C"); err != nil {
			t.Fatalf("update round %d: %v", round, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	for i := range names {
		if checkpoints[i].Load() == 0 {
			t.Fatalf("checkpoint storm never ran at %s", names[i])
		}
	}
	for i, pl := range []string{"r1", "r2"} {
		if pulls[i].Load() == 0 {
			t.Fatalf("explicit puller on %s never completed a pull", pl)
		}
	}

	// Quiescent sanity: catch the chain up, then every tuple of C must
	// have reached B and A exactly (copy rules and set semantics make the
	// counts equal).
	if _, err := nw.CatchUp(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	cntA, cntB, cntC := nw.Peer("A").Count("data"), nw.Peer("B").Count("data"), nw.Peer("C").Count("data")
	if cntC != rounds*10 || cntB != cntC || cntA != cntB {
		t.Fatalf("materialisation incomplete after stress: A=%d B=%d C=%d, want all %d", cntA, cntB, cntC, rounds*10)
	}
}
