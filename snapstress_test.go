package codb

// Race-stress test for snapshot-backed session evaluation: global update
// sessions continuously pin and re-pin storage snapshots (every
// materialising insert advances the LSN and forces a fresh pin) while a
// checkpoint storm pins its own snapshots and rewrites the durable state
// of the same databases, and concurrent readers take the snapshot read
// path. Exactly the interleavings of the per-relation COW views — primary
// and lazy secondary — that the write path now depends on. Run under
// -race in CI.

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSessionSnapshotCheckpointRaceStress(t *testing.T) {
	nw := NewNetwork()
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
	for i, name := range names {
		rows := make([]Tuple, 40)
		for j := range rows {
			rows[j] = Row(Int(i*10_000+j), Int(j))
		}
		if err := nw.Insert(name, "data", rows...); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Checkpoint storm: every database checkpoints as fast as it can,
	// each checkpoint pinning a snapshot and rewriting durable state
	// while sessions evaluate over their own pins.
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

	// Readers on the concurrent snapshot path, sharing the COW views the
	// sessions pin.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := nw.LocalQuery("A", `ans(k) :- data(k, v), v >= 3`, AllAnswers); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	// Concurrent update sessions from two origins: each materialising
	// insert at an importer advances its LSN, so the session re-pins on
	// the next evaluation — racing the checkpointers invalidating and
	// rebuilding the same relation views.
	const rounds = 10
	var uwg sync.WaitGroup
	for w, origin := range []string{"C", "B"} {
		uwg.Add(1)
		go func(w int, origin string) {
			defer uwg.Done()
			for round := 0; round < rounds; round++ {
				rows := make([]Tuple, 8)
				for j := range rows {
					rows[j] = Row(Int(100_000+w*50_000+round*1_000+j), Int(round))
				}
				if err := nw.Insert(origin, "data", rows...); err != nil {
					t.Errorf("insert %s round %d: %v", origin, round, err)
					return
				}
				if _, err := nw.Update(ctxT(t), origin); err != nil {
					t.Errorf("update %s round %d: %v", origin, round, err)
					return
				}
			}
		}(w, origin)
	}
	uwg.Wait()
	stop.Store(true)
	wg.Wait()

	for i := range names {
		if checkpoints[i].Load() == 0 {
			t.Fatalf("checkpoint storm never ran at %s", names[i])
		}
	}
	// Quiescent sanity: one final serial update settles the network, then
	// every tuple of C must have reached B and A (set semantics make the
	// count check exact: A ⊇ B ⊇ C).
	if _, err := nw.Update(ctxT(t), "C"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Update(ctxT(t), "B"); err != nil {
		t.Fatal(err)
	}
	cntA, cntB, cntC := nw.Peer("A").Count("data"), nw.Peer("B").Count("data"), nw.Peer("C").Count("data")
	if cntB < cntC || cntA < cntB {
		t.Fatalf("materialisation incomplete after stress: A=%d B=%d C=%d", cntA, cntB, cntC)
	}
}
