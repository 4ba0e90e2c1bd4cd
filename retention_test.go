package codb

import (
	"context"
	"runtime"
	"testing"

	"codb/internal/topo"
)

// TestFinishedQuerySessionsAreDropped: a peer that has answered a
// distributed query keeps next to nothing of it. Thousands of queries over a
// 4-node in-process chain, with the bounded report rings filled first, must
// leave under 1 KB of live heap per query session, summed over the chain.
// (A finished session used to stay in every node's session table with its
// whole report: 4.6 KB per query, never freed.)
func TestFinishedQuerySessionsAreDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thousands of queries")
	}
	nw := topoNetwork(t, topo.Chain, 4, 8, 7, topo.Options{Seed: 7}, NetworkOptions{})
	defer nw.Close()
	origin := topo.NodeName(0)
	query := func() {
		rows, err := nw.Query(context.Background(), origin, `ans(k, v) :- data(k, v)`, AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4*8 {
			t.Fatalf("query answered %d rows, want %d", len(rows), 4*8)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < 500; i++ { // fill the per-node report rings
		query()
	}
	before := heap()
	const queries = 4000
	for i := 0; i < queries; i++ {
		query()
	}
	after := heap()
	per := (int64(after) - int64(before)) / queries
	t.Logf("heap %d B -> %d B over %d queries: %d B retained per query session", before, after, queries, per)
	if per >= 1024 {
		t.Errorf("each finished query session retains %d B of heap, want < 1024", per)
	}
	runtime.KeepAlive(nw)
}
