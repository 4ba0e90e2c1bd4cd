// Root benchmark and timing gates, on plain codb.Network calls. The repo's
// end-to-end benchmark is the bench/ module; what stays here is a data-scale
// gate, an end-to-end coalescing check over TCP, and the durable-hop
// micro-benchmark.
//
// Run the benchmark with:
//
//	go test -run '^$' -bench DurableChainIncrement -benchmem .
package codb

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"codb/internal/topo"
	"codb/internal/workload"
)

// topoNetwork builds an in-process network in the generated topology (copy
// rules over data(k, v) unless opts says otherwise) and seeds tuples
// node-unique rows of data at every node. The caller closes it.
func topoNetwork(tb testing.TB, shape topo.Shape, n, tuples int, seed int64, opts topo.Options, nopts NetworkOptions) *Network {
	tb.Helper()
	cfg, err := topo.Build(shape, n, opts)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := NewNetworkFromConfigWithOptions(cfg.String(), nopts)
	if err != nil {
		tb.Fatal(err)
	}
	rows := workload.Generate(nw.Peers(), workload.Spec{TuplesPerNode: tuples, Seed: seed})
	for node, ts := range rows {
		if err := nw.Insert(node, "data", ts...); err != nil {
			nw.Close()
			tb.Fatal(err)
		}
	}
	return nw
}

// TestUpdateDataScaleIsLinear gates the update's per-row cost: one op (build
// an 8-node chain, run the global update, close) at 2,000 rows/node may cost
// at most 8x one at 500 rows/node (linear is 4x), so a per-row cost that
// grows with the table fails tier-1. Medians of three, so one slow run does
// not decide it.
func TestUpdateDataScaleIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	medianOp := func(tuples int) time.Duration {
		var runs []time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			nw := topoNetwork(t, topo.Chain, 8, tuples, 44, topo.Options{Seed: 43}, NetworkOptions{})
			rep, err := nw.Update(context.Background(), topo.NodeName(0))
			nw.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.NewTuples != 7*tuples {
				t.Fatalf("%d rows/node: head materialised %d tuples, want %d", tuples, rep.NewTuples, 7*tuples)
			}
			runs = append(runs, time.Since(start))
		}
		slices.Sort(runs)
		return runs[1]
	}
	medianOp(100) // warm-up: first-use costs stay out of the ratio
	small, large := medianOp(500), medianOp(2000)
	ratio := float64(large) / float64(small)
	t.Logf("500 rows/node %v, 2000 rows/node %v: %.1fx", small, large, ratio)
	if ratio > 8 {
		t.Fatalf("update cost grew %.1fx for 4x the rows (%v -> %v); want <= 8x", ratio, small, large)
	}
}

// TestFanoutOverTCP: a fan-out update over real sockets (every leaf imports
// from the hub through four parallel rules) materialises at every leaf, and
// the outbound pipeline ships fewer frames than payloads, because queued
// messages to one leaf coalesce.
func TestFanoutOverTCP(t *testing.T) {
	const leaves, tuples = 4, 20
	nw := topoNetwork(t, topo.Fanout, leaves+1, tuples, 8, topo.Options{FanRules: 4, Seed: 7},
		NetworkOptions{Transport: TransportGroup{TCP: true}})
	defer nw.Close()
	if _, err := nw.Update(ctxT(t), topo.NodeName(0)); err != nil {
		t.Fatal(err)
	}
	var frames, payloads uint64
	for i := 0; i <= leaves; i++ {
		p := nw.Peer(topo.NodeName(i))
		if want := 2 * tuples; i > 0 && p.Count("data") != want {
			t.Errorf("leaf %s holds %d tuples, want %d", p.Name(), p.Count("data"), want)
		}
		p.FlushOutbox()
		st := p.OutboxStats()
		frames += st.Frames
		payloads += st.Payloads
	}
	if frames == 0 || frames >= payloads {
		t.Errorf("%d frames for %d payloads: coalescing had no effect", frames, payloads)
	}
}

// BenchmarkDurableChainIncrement shows the durable hop: a 6-node TCP chain of
// durable, sync-on-commit peers, a 64-row burst inserted at the tail, one
// global update from the head. One op crosses five hops that each have to
// make the burst durable before they acknowledge it; ns/op is what the
// overlap of their syncs buys, B/op what a hop allocates to move 64 rows.
func BenchmarkDurableChainIncrement(b *testing.B) {
	const nodes, burst = 6, 64
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{TCP: true},
		Storage:   StorageGroup{SyncOnCommit: true},
	})
	defer nw.Close()
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < nodes; i++ {
		if _, err := nw.AddDurablePeer(name(i), b.TempDir(), "r(x int, y int)"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i+1 < nodes; i++ {
		nw.MustAddRule(fmt.Sprintf("r%d", i), fmt.Sprintf("%s.r(x, y) <- %s.r(x, y)", name(i), name(i+1)))
	}
	ctx := context.Background()
	next := 0
	op := func() {
		rows := make([]Tuple, burst)
		for i := range rows {
			// Ascending keys, as the repo benchmark's bursts: a burst lands in
			// one leaf, so B/op is the session's, not the B+tree's path copies.
			rows[i] = Row(Int(next), Int(next*7919%10000019))
			next++
		}
		if err := nw.Insert(name(nodes-1), "r", rows...); err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Update(ctx, name(0)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // first session's full export, pipes, first-use costs
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if got := nw.Peer(name(0)).Count("r"); got != next {
		b.Fatalf("head holds %d rows, want %d", got, next)
	}
}
