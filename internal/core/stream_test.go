package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// TestStreamedAnswersMatchOracle: on random trees whose links mix copy
// rules, a join rule and a null-minting rule, the answers a query origin
// streams semi-naively — a lookup with a constant, a self-join, a query with
// a comparison and a head constant — equal cq.Eval over the oracle fixpoint
// at the origin, under shuffled delivery orders and in both answer modes,
// with no answer streamed twice.
func TestStreamedAnswersMatchOracle(t *testing.T) {
	templates := []func(tgt, src string) string{
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, y) <- %s.b(x, y)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, y) <- %s.b(x, y)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, z) <- %s.b(x, y), %s.b(y, z)`, t, s, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, n) <- %s.u(x)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.u(y) <- %s.b(x, y)`, t, s) },
	}
	queries := []string{
		`ans(v) :- b(%d, v)`,
		`ans(z) :- b(%d, y), b(y, z)`,
		`ans(7, y) :- b(x, y), x >= %d`,
		`ans(x, z) :- b(x, y), b(y, z), u(x)`,
	}
	for seed := int64(0); seed < 150; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		nNodes := rnd.Intn(4) + 2
		names := make([]string, nNodes)
		for i := range names {
			names[i] = fmt.Sprintf("N%d", i)
		}
		var rules []*cq.Rule
		for i := 1; i < nNodes; i++ {
			parent := names[rnd.Intn(i)]
			for k, n := 0, rnd.Intn(2)+1; k < n; k++ {
				text := templates[rnd.Intn(len(templates))](parent, names[i])
				rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d_%d", i, k), text))
			}
		}
		seeds := make(map[string]relation.Instance)
		for _, n := range names {
			in := relation.NewInstance()
			for i, k := 0, rnd.Intn(4); i < k; i++ {
				in.Insert("u", relation.Tuple{relation.Int(rnd.Intn(4))})
			}
			for i, k := 0, rnd.Intn(6); i < k; i++ {
				in.Insert("b", relation.Tuple{relation.Int(rnd.Intn(4)), relation.Int(rnd.Intn(4))})
			}
			seeds[n] = in
		}
		oracle, _, err := chase.Fixpoint(rules, seeds, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}

		s := newSim(t)
		s.rnd = rand.New(rand.NewSource(seed ^ 0xfe7c4))
		for _, n := range names {
			s.addNode(n, "u/1", "b/2")
		}
		for _, r := range rules {
			s.rule(r.ID, r.String())
		}
		for node, in := range seeds {
			for _, rel := range []string{"u", "b"} {
				if _, err := s.nodes[node].Wrapper().InsertMany(rel, in.Tuples(rel)); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, tmpl := range queries {
			text := tmpl
			if n := rnd.Intn(4); tmpl != queries[3] {
				text = fmt.Sprintf(tmpl, n)
			}
			q := mustQuery(t, text)
			for _, mode := range []QueryMode{AllAnswers, CertainAnswers} {
				want, err := EvalQuery(q, oracle[names[0]], mode, cq.EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got := s.query(names[0], text, mode)
				keys := make(map[string]bool, len(got))
				for _, a := range got {
					if keys[a.Key()] {
						t.Fatalf("seed %d: %s streamed %v twice", seed, text, a)
					}
					keys[a.Key()] = true
				}
				missing := 0
				for _, w := range want {
					if !keys[w.Key()] {
						missing++
					}
				}
				if missing > 0 || len(got) != len(want) {
					for _, r := range rules {
						t.Logf("  %s: %s", r.ID, r)
					}
					t.Fatalf("seed %d mode %d: %s\n streamed: %v\n oracle:   %v", seed, mode, text, got, want)
				}
			}
		}
	}
}

// queryChain builds A <- B <- C over b/2 copy rules with `rows` tuples at C
// and B each.
func queryChain(t *testing.T, rows int) *sim {
	s := newSim(t)
	for _, n := range []string{"A", "B", "C"} {
		s.addNode(n, "b/2")
	}
	s.rule("r1", `A.b(x, y) <- B.b(x, y)`)
	s.rule("r2", `B.b(x, y) <- C.b(x, y)`)
	for i, node := range []string{"B", "C"} {
		ts := make([]relation.Tuple, rows)
		for j := range ts {
			ts[j] = intRow(i*rows+j, j)
		}
		if _, err := s.nodes[node].Wrapper().InsertMany("b", ts); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestFinishedQuerySessionRetainsNothing: once a query session is done,
// every node on its path has dropped the session — per-tuple and per-link
// state, report and all (sent caches and answer keys used to stay, ~0.55 MB
// per query) — keeping only its SID, and the heap does not grow with the
// number of finished queries.
func TestFinishedQuerySessionRetainsNothing(t *testing.T) {
	const rows = 500
	s := queryChain(t, rows)
	run := func() {
		got := s.query("A", `ans(x, y) :- b(x, y)`, AllAnswers)
		if len(got) != 2*rows {
			t.Fatalf("query streamed %d answers, want %d", len(got), 2*rows)
		}
		// The harness keeps answers and reports per session; drop them so
		// the heap comparison below sees only what the nodes keep.
		s.answers = make(map[string][]relation.Tuple)
		s.finished = make(map[string][]Finished)
	}
	run()
	for name, n := range s.nodes {
		if len(n.sessions) != 0 || len(n.finished) != 1 {
			t.Fatalf("%s keeps %d running and %d finished sessions, want 0 and 1", name, len(n.sessions), len(n.finished))
		}
	}

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < 20; i++ { // fill the bounded report rings and the chase memos
		run()
	}
	before := heap()
	const more = 100
	for i := 0; i < more; i++ {
		run()
	}
	after := heap()
	// A finished session is one SID entry per node; a stub session with
	// its report was ~1.4 KB per node, and retained sent caches and answer
	// keys ~200 KB per query here.
	t.Logf("heap: %d B before, %d B after %d more queries", before, after, more)
	if after > before && (after-before)/more > 16<<10 {
		t.Errorf("heap grew %d B per finished query over %d queries; want O(1) stubs", (after-before)/more, more)
	}
	runtime.KeepAlive(s) // the nodes must still be reachable when the heap is measured
}

// hopFixture puts node B of A <- B <- C into a running query session of A.
// batch makes a data message of n never-seen bindings from C over r2;
// delivering it to the node is one hop of the query data path (chase,
// overlay insert, semi-naive re-export through r1, sent cache).
func hopFixture(tb testing.TB) (node *Node, batch func(n int) msg.Envelope) {
	b, err := NewNode(Config{Self: "B", Wrapper: NewStoreWrapper(newTestDB(tb, "b/2"))})
	if err != nil {
		tb.Fatal(err)
	}
	r1, r2 := `A.b(x, y) <- B.b(x, y)`, `B.b(x, y) <- C.b(x, y)`
	if err := b.AddRule("r1", r1); err != nil {
		tb.Fatal(err)
	}
	if err := b.AddRule("r2", r2); err != nil {
		tb.Fatal(err)
	}
	const sid = "q1"
	b.Handle(msg.Envelope{From: "A", Payload: &msg.SessionRequest{
		SID: sid, Kind: msg.KindQuery, Origin: "A", Path: []string{"A"},
		Rules: []msg.RuleDef{{ID: "r1", Text: r1}},
	}})
	next := 0
	return b, func(n int) msg.Envelope {
		bindings := make([]relation.Tuple, n)
		for i := range bindings {
			bindings[i] = intRow(next, next+1)
			next++
		}
		return msg.Envelope{From: "C", Payload: &msg.SessionData{
			SID: sid, Kind: msg.KindQuery, Origin: "A", RuleID: "r2", Bindings: bindings, Path: []string{"C"},
		}}
	}
}

// TestQueryHopAllocations guards the per-tuple cost of the query data path:
// one handleData hop of a 128-binding copy-rule batch — every binding new,
// so the chase memo misses, the overlay grows and everything is re-exported
// — stays under 2 allocations and 512 B per binding. (It measures 1.3
// allocations and 417 B, with the tuple keyed once per hop, by view.stage.
// Before: 3.4 and 627 B while the projection and the sent cache keyed it
// again; 6.4 and 845 B when the guard was written; 35.1 and 2,207 B before
// evaluation became delta-driven.)
func TestQueryHopAllocations(t *testing.T) {
	const size, runs = 128, 20
	node, batch := hopFixture(t)
	res := node.Handle(batch(size))
	if len(res.Out) == 0 {
		t.Fatal("hop shipped nothing")
	}
	if d, ok := res.Out[0].Payload.(*msg.SessionData); !ok || len(d.Bindings) != size {
		t.Fatalf("hop shipped %T, want a data message of %d bindings", res.Out[0].Payload, size)
	}

	batches := make([]msg.Envelope, 2*runs+1) // AllocsPerRun warms up with one extra call
	for i := range batches {
		batches[i] = batch(size)
	}
	hop := func() {
		node.Handle(batches[0])
		batches = batches[1:]
	}
	allocs := testing.AllocsPerRun(runs, hop) / size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * size)
	t.Logf("query hop: %.1f allocs and %.0f B per binding", allocs, bytes)
	if allocs > 2 {
		t.Errorf("query hop makes %.1f allocations per binding, want <= 2", allocs)
	}
	if bytes > 512 {
		t.Errorf("query hop allocates %.0f B per binding, want <= 512", bytes)
	}
}

// encodeBatch encodes a hop fixture's data message as the TCP transport
// sends it; msg.DecodeEnvelope(tag, body) is then what the receiver's read
// loop hands the node.
func encodeBatch(tb testing.TB, env msg.Envelope) (msg.Tag, []byte) {
	body, tag, err := msg.AppendEnvelope(nil, env)
	if err != nil {
		tb.Fatal(err)
	}
	return tag, body
}

// TestDecodedBatchStagesLikeBus: a batch decoded off the wire, which is
// staged as it arrived, ships exactly what the same batch handed over in
// process (through Applier.Facts and Tuple.Key) does — with repeats inside
// the batch, tuples seen in an earlier batch, and a batch whose mixed
// arities send it down the Facts path.
func TestDecodedBatchStagesLikeBus(t *testing.T) {
	bus, _ := hopFixture(t)
	wire, _ := hopFixture(t)
	data := func(bindings ...relation.Tuple) msg.Envelope {
		return msg.Envelope{From: "C", Payload: &msg.SessionData{
			SID: "q1", Kind: msg.KindQuery, Origin: "A", RuleID: "r2", Bindings: bindings, Path: []string{"C"},
		}}
	}
	for i, env := range []msg.Envelope{
		data(intRow(1, 2), intRow(3, 4), intRow(1, 2)),
		data(intRow(3, 4), intRow(5, 6)),
		data(intRow(7, 8), intRow(9), intRow(10, 11, 12), intRow(13, 14)),
	} {
		tag, body := encodeBatch(t, env)
		decoded, err := msg.DecodeEnvelope(tag, body)
		if err != nil {
			t.Fatal(err)
		}
		want, got := shipped(bus.Handle(env)), shipped(wire.Handle(decoded))
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("batch %d: decoded hop shipped %v, in-process hop %v", i, got, want)
		}
	}
}

// shipped lists the bindings a hop's data messages carry, in order.
func shipped(r Result) []string {
	var out []string
	for _, env := range r.Out {
		if d, ok := env.Payload.(*msg.SessionData); ok {
			for _, b := range d.Bindings {
				out = append(out, b.String())
			}
		}
	}
	return out
}

// TestDecodedQueryHopAllocations guards the same hop as it runs over TCP:
// decode a 128-binding batch off the wire, then deliver it. The batch is
// staged as it arrived — its values in one slab, its keys cut from one
// string of the message — so the hop, decode included, stays under 0.5
// allocations and 400 B per binding. (Before: 2.34 allocations and 540 B,
// with one tuple per binding from the decoder, the chase's copy into a
// fresh slab and one Tuple.Key per binding in view.stage.)
func TestDecodedQueryHopAllocations(t *testing.T) {
	const size, runs = 128, 20
	node, batch := hopFixture(t)
	bodies := make([][]byte, 2*runs+2) // AllocsPerRun warms up with one extra call
	var tag msg.Tag
	for i := range bodies {
		tag, bodies[i] = encodeBatch(t, batch(size))
	}
	hop := func() {
		env, err := msg.DecodeEnvelope(tag, bodies[0])
		if err != nil {
			t.Fatal(err)
		}
		bodies = bodies[1:]
		if res := node.Handle(env); len(res.Out) == 0 {
			t.Fatal("hop shipped nothing")
		}
	}
	hop()
	allocs := testing.AllocsPerRun(runs, hop) / size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * size)
	t.Logf("decoded query hop: %.2f allocs and %.0f B per binding", allocs, bytes)
	if allocs > 0.5 {
		t.Errorf("decoded query hop makes %.2f allocations per binding, want <= 0.5", allocs)
	}
	if bytes > 400 {
		t.Errorf("decoded query hop allocates %.0f B per binding, want <= 400", bytes)
	}
}

// BenchmarkQueryHop times the same hop: ns/op is per 128-binding batch,
// handed over in process (bus) or decoded off the wire first (wire).
func BenchmarkQueryHop(b *testing.B) {
	b.Run("bus", func(b *testing.B) {
		node, batch := hopFixture(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			env := batch(128)
			b.StartTimer()
			node.Handle(env)
		}
	})
	b.Run("wire", func(b *testing.B) {
		node, batch := hopFixture(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tag, body := encodeBatch(b, batch(128))
			b.StartTimer()
			env, err := msg.DecodeEnvelope(tag, body)
			if err != nil {
				b.Fatal(err)
			}
			node.Handle(env)
		}
	})
}
