// Benchmark harness regenerating the paper's §4 experiment programme
// (DESIGN.md, experiments E1–E7 and ablations A3 and A4). Each benchmark
// reports, besides ns/op, the statistics the coDB statistical module
// collects: data messages (msgs/op), shipped volume (bytes/op), and the
// longest update propagation path (maxpath).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package codb

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"codb/internal/experiment"
	"codb/internal/topo"
)

func reportUpdateMetrics(b *testing.B, res experiment.Result) {
	b.Helper()
	b.ReportMetric(float64(res.TotalMsgs), "msgs/op")
	b.ReportMetric(float64(res.TotalBytes), "xferbytes/op")
	b.ReportMetric(float64(res.MaxPath), "maxpath")
	b.ReportMetric(float64(res.NewTuples), "newtuples/op")
}

func runUpdateBench(b *testing.B, p experiment.Params) {
	b.Helper()
	ctx := context.Background()
	var last experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunUpdate(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportUpdateMetrics(b, last)
}

// E1–E4: global update across topologies and network sizes. One run
// measures the update's total execution time (E1); the reported metrics
// carry messages per rule (E2), data volume (E3) and longest propagation
// path (E4).
func BenchmarkUpdateTopology(b *testing.B) {
	shapes := []topo.Shape{topo.Chain, topo.Ring, topo.Star, topo.Tree, topo.Random}
	for _, shape := range shapes {
		for _, n := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				runUpdateBench(b, experiment.Params{
					Shape: shape, Nodes: n, TuplesPerNode: 250, Overlap: 0.1, Seed: 42,
				})
			})
		}
	}
}

// dataScaleParams is the E1 data-size chain: 8 nodes, the given per-node
// cardinality.
func dataScaleParams(tuples int) experiment.Params {
	return experiment.Params{Shape: topo.Chain, Nodes: 8, TuplesPerNode: tuples, Seed: 43}
}

// E1 (scaling in data size): chain of 8, growing per-node cardinality.
func BenchmarkUpdateDataScale(b *testing.B) {
	for _, tuples := range []int{100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			runUpdateBench(b, dataScaleParams(tuples))
		})
	}
}

// TestUpdateDataScaleIsLinear is BenchmarkUpdateDataScale as a gate: one op
// (build the chain, run the global update) at 2,000 rows/node may cost at
// most 8x one at 500 rows/node (linear is 4x), so a per-row cost that grows
// with the table fails tier-1. Medians of three, so one slow run does not
// decide it.
func TestUpdateDataScaleIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	medianOp := func(tuples int) time.Duration {
		var runs []time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := experiment.RunUpdate(context.Background(), dataScaleParams(tuples)); err != nil {
				t.Fatal(err)
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

// E5: query-time fetching vs local query after a global update — the
// paper's core motivation for materialisation.
func BenchmarkQueryColdVsMaterialised(b *testing.B) {
	p := experiment.Params{Shape: topo.Chain, Nodes: 8, TuplesPerNode: 500, Seed: 44}
	ctx := context.Background()
	b.Run("cold-distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunQueryCold(ctx, p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Answers), "answers")
		}
	})
	b.Run("materialised-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunQueryMaterialised(ctx, p)
			if err != nil {
				b.Fatal(err)
			}
			// res.Wall covers only the local query; surface it.
			b.ReportMetric(float64(res.Wall.Nanoseconds()), "localquery-ns")
			b.ReportMetric(float64(res.Answers), "answers")
		}
	})
}

// Fan-out over loopback TCP: one initiator exporting to N acquaintances —
// the outbound pipeline's stress shape: the asynchronous per-destination
// outbox with frame coalescing. frames/op vs msgs/op shows the
// frames-on-the-wire reduction from coalescing.
func BenchmarkFanoutBatching(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d/batched", n), func(b *testing.B) {
			// FullExport keeps every iteration re-shipping the full
			// frontier; the benchmark measures the outbound pipeline, not
			// the incremental-export watermarks.
			net, err := experiment.Build(experiment.Params{
				Shape: topo.Fanout, Nodes: n + 1, TuplesPerNode: 5, FanRules: 32, Seed: 51,
				TCP: true, FullExport: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			b.ResetTimer()
			var last experiment.Result
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunUpdateOn(ctx, net)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			reportUpdateMetrics(b, last)
			b.ReportMetric(float64(last.Frames), "frames/op")
			b.ReportMetric(float64(last.WireBytes), "wirebytes/op")
		})
	}
}

// E6: dynamic topology change at runtime via the super-peer.
func BenchmarkDynamicReconfig(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		net, err := experiment.Build(experiment.Params{
			Shape: topo.Chain, Nodes: 8, TuplesPerNode: 100, Seed: 45,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Reconfigure to a star mid-life, then update: must terminate and
		// materialise under the new shape.
		starCfg, err := topo.Build(topo.Star, 8, topo.Options{Version: 2})
		if err != nil {
			net.Close()
			b.Fatal(err)
		}
		for _, pr := range net.Peers {
			if err := pr.ApplyConfig(starCfg, 2); err != nil {
				net.Close()
				b.Fatal(err)
			}
		}
		if _, err := net.Peers[net.Origin].RunUpdate(ctx); err != nil {
			net.Close()
			b.Fatal(err)
		}
		net.Close()
	}
}

// E7: cyclic rule graphs — rings with copy rules and with existential
// rules (the fix-point case the paper highlights).
func BenchmarkCyclicFixpoint(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("copy-ring/n=%d", n), func(b *testing.B) {
			runUpdateBench(b, experiment.Params{
				Shape: topo.Ring, Nodes: n, TuplesPerNode: 100, Seed: 46,
			})
		})
		b.Run(fmt.Sprintf("existential-ring/n=%d", n), func(b *testing.B) {
			runUpdateBench(b, experiment.Params{
				Shape: topo.Ring, Nodes: n, TuplesPerNode: 100, Seed: 46,
				Existential: true, MaxDepth: 8,
			})
		})
	}
}

// A3: hash join vs nested-loop join, on join rules (self-join bodies) over
// a small value domain so the joins have partners.
func BenchmarkAblationJoin(b *testing.B) {
	base := experiment.Params{
		Shape: topo.Chain, Nodes: 3, TuplesPerNode: 400,
		Rule: topo.JoinRule, Domain: 200, Seed: 49,
	}
	b.Run("hash", func(b *testing.B) { runUpdateBench(b, base) })
	nested := base
	nested.NestedLoop = true
	b.Run("nested-loop", func(b *testing.B) { runUpdateBench(b, nested) })
}

// A4: marked-null cost — copy rules vs existential rules on the same
// topology and data.
func BenchmarkAblationNulls(b *testing.B) {
	base := experiment.Params{Shape: topo.Tree, Nodes: 7, TuplesPerNode: 300, Seed: 50}
	b.Run("copy-rules", func(b *testing.B) { runUpdateBench(b, base) })
	ex := base
	ex.Existential = true
	b.Run("existential-rules", func(b *testing.B) { runUpdateBench(b, ex) })
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
