package codb

// Race-stress test for the concurrent read path: many goroutines hammer
// one peer's read APIs (LocalQuery on the snapshot path, the local
// QueryStream bypass, Count, Tuples, ReadStats) while global updates
// materialise data into it and rule-set broadcasts churn the topology —
// exactly the interleavings the snapshot/cache machinery must survive. Run
// under -race in CI.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

const stressConfigBase = `
node A
 rel data(k int, v int)
 rel local(k int, v int)
end
node B
 rel data(k int, v int)
end
node C
 rel data(k int, v int)
end
rule r1: A.data(k, v) <- B.data(k, v)
`

const stressConfigWide = stressConfigBase + `rule r2: A.data(k, v) <- C.data(k, v)
`

func TestConcurrentReadStress(t *testing.T) {
	nw, err := NewNetworkFromConfig(stressConfigBase)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for node, base := range map[string]int{"A": 0, "B": 10_000, "C": 20_000} {
		rows := make([]Tuple, 50)
		for i := range rows {
			rows[i] = Row(Int(base+i), Int(i))
		}
		if err := nw.Insert(node, "data", rows...); err != nil {
			t.Fatal(err)
		}
	}
	localRows := make([]Tuple, 30)
	for i := range localRows {
		localRows[i] = Row(Int(i), Int(i*i))
	}
	if err := nw.Insert("A", "local", localRows...); err != nil {
		t.Fatal(err)
	}

	cfgBase, err := ParseConfig(stressConfigBase)
	if err != nil {
		t.Fatal(err)
	}
	cfgWide, err := ParseConfig(stressConfigWide)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readerGoroutines = 8
		writerRounds     = 12
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	peerA := nw.Peer("A")

	// Readers: all read APIs, all modes, across the whole run.
	for g := 0; g < readerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				switch i % 5 {
				case 0:
					if _, err := nw.LocalQuery("A", `ans(k, v) :- data(k, v)`, AllAnswers); err != nil {
						t.Errorf("reader %d: LocalQuery: %v", g, err)
						return
					}
				case 1:
					// Distinct constants: cold cache lines under churn.
					q := fmt.Sprintf(`ans(k) :- data(k, v), v >= %d`, i%7)
					if _, err := nw.LocalQuery("A", q, CertainAnswers); err != nil {
						t.Errorf("reader %d: LocalQuery cold: %v", g, err)
						return
					}
				case 2:
					// `local` is fed by no coordination rule, so this
					// stream must always take the session-free local
					// bypass — even while broadcasts churn the rule set.
					// (A *distributed* query racing a reconfiguration that
					// drops its pipes can hang its session; that hazard
					// predates the read path and is out of scope here.)
					answers, done, err := nw.QueryStream(context.Background(), "A", `ans(v) :- local(k, v)`, AllAnswers)
					if err != nil {
						t.Errorf("reader %d: QueryStream: %v", g, err)
						return
					}
					for range answers {
					}
					<-done
				case 3:
					peerA.Count("data")
					peerA.Tuples("data")
				case 4:
					peerA.ReadStats()
					peerA.Schema()
				}
			}
		}(g)
	}

	// Writer: updates from rotating origins interleaved with rule-set
	// churn (broadcast-style ApplyConfig on every peer, versions rising).
	origins := []string{"A", "B", "C"}
	version := 2
	for round := 0; round < writerRounds; round++ {
		rows := make([]Tuple, 10)
		for i := range rows {
			rows[i] = Row(Int(100_000+round*1_000+i), Int(round))
		}
		if err := nw.Insert(origins[round%3], "data", rows...); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Update(ctxT(t), origins[round%3]); err != nil {
			t.Fatalf("update round %d: %v", round, err)
		}
		cfg := cfgWide
		if round%2 == 1 {
			cfg = cfgBase
		}
		for _, name := range origins {
			if err := nw.Peer(name).ApplyConfig(cfg, version); err != nil {
				t.Fatalf("reconfig round %d at %s: %v", round, name, err)
			}
		}
		version++
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent sanity: the read path agrees with the raw table count.
	want := peerA.Count("data")
	rows, err := nw.LocalQuery("A", `ans(k, v) :- data(k, v)`, AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("post-stress LocalQuery %d rows, Count %d", len(rows), want)
	}
	if st, ok := nw.PeerReadStats("A"); !ok || st.Hits+st.Misses == 0 {
		t.Fatalf("read path unused during stress: %+v ok=%v", st, ok)
	}
}
