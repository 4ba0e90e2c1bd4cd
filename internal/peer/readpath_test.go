package peer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/transport"
)

func sortedKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func TestReadPathLocalQueryCaching(t *testing.T) {
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/2")
	if err := p.Insert("r", ints(1, 10), ints(2, 20)); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery(`ans(x) :- r(x, y)`)

	first, err := p.LocalQuery(q, core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("LocalQuery returned %d answers, want 2", len(first))
	}
	second, err := p.LocalQuery(q, core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	st := p.ReadStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after repeat query: %+v, want 1 hit / 1 miss", st)
	}
	if len(second) != len(first) {
		t.Fatalf("cached answers differ: %d vs %d", len(second), len(first))
	}

	// A commit invalidates: the next query re-evaluates and sees new data.
	if err := p.Insert("r", ints(3, 30)); err != nil {
		t.Fatal(err)
	}
	third, err := p.LocalQuery(q, core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != 3 {
		t.Fatalf("post-commit query returned %d answers, want 3", len(third))
	}
	st = p.ReadStats()
	if st.Misses != 2 || st.Stale != 1 {
		t.Fatalf("cache stats after invalidation: %+v, want 2 misses / 1 stale", st)
	}
}

func TestReadPathQueryStreamLocalBypass(t *testing.T) {
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/2")
	if err := p.Insert("r", ints(1, 10), ints(2, 20)); err != nil {
		t.Fatal(err)
	}
	// No rules at all: every query is local-only and must bypass the
	// session machinery (report kind is still a query report).
	answers, done, err := p.QueryStream(ctxT(t), cq.MustParseQuery(`ans(x, y) :- r(x, y)`), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range answers {
		n++
	}
	rep := <-done
	if n != 2 {
		t.Fatalf("local bypass streamed %d answers, want 2", n)
	}
	if rep.Kind != msg.KindQuery || rep.Origin != "A" {
		t.Fatalf("bypass report = %+v", rep)
	}
	if rep.CacheHits+rep.CacheMisses != 1 {
		t.Fatalf("bypass report cache counters = %d/%d, want exactly one lookup", rep.CacheHits, rep.CacheMisses)
	}
	if p.node.ActiveSessions() != nil {
		t.Fatalf("local bypass left sessions behind: %v", p.node.ActiveSessions())
	}
	// The synthetic report still reaches the statistics module (it is
	// posted into the actor loop asynchronously, so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, r := range p.Reports() {
			if r.SID == rep.SID {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bypass report never reached the statistics module")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadPathQueryStreamStillDistributed(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	if err := b.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}
	rule := `A.r(x) <- B.r(x)`
	if err := a.AddRule("r1", rule); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRule("r1", rule); err != nil {
		t.Fatal(err)
	}
	// The query's relation is fed by an outgoing link: the bypass must
	// stand aside and the distributed session must fetch B's data.
	got, err := a.Query(ctxT(t), cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("distributed query returned %d answers, want 2", len(got))
	}
}

// TestReadPathRuleChangeInvalidates ensures a rule reconfiguration flips
// the validity token even without any storage commit.
func TestReadPathRuleChangeInvalidates(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	newBusPeer(t, bus, "B", "r/1")
	q := cq.MustParseQuery(`ans(x) :- r(x)`)
	if _, err := a.LocalQuery(q, core.AllAnswers); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.LocalQuery(q, core.AllAnswers); err != nil {
		t.Fatal(err)
	}
	st := a.ReadStats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("cache stats across rule change: %+v, want 0 hits / 2 misses", st)
	}
}

// TestReadPathMatchesActorPath cross-checks the read path against a plain
// evaluation over a relation.Instance copy of the data, and pins that a
// mediator has a read path too.
func TestReadPathMatchesActorPath(t *testing.T) {
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/2")
	rows := []relation.Tuple{ints(1, 10), ints(2, 20), ints(3, 10)}
	if err := p.Insert("r", rows...); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery(`ans(y) :- r(x, y)`)
	viaRead, err := p.LocalQuery(q, core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	in := relation.NewInstance()
	for _, row := range rows {
		in.Insert("r", row)
	}
	want, err := cq.Eval(q, in, cq.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotR, gotW := sortedKeys(viaRead), sortedKeys(want)
	if len(gotR) != len(gotW) {
		t.Fatalf("read path %d answers, instance %d", len(gotR), len(gotW))
	}
	for i := range gotR {
		if gotR[i] != gotW[i] {
			t.Fatalf("answer %d differs: %q vs %q", i, gotR[i], gotW[i])
		}
	}

	// A mediator's wrapper is a memory-only engine: it serves reads off the
	// actor loop like any other peer.
	schema := relation.NewSchema()
	if err := schema.Add(&relation.RelDef{Name: "m", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	med, err := New(Options{Name: "M", Transport: bus.MustJoin("M"), Wrapper: core.NewMediatorWrapper(schema)})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Stop()
	if err := med.Insert("m", ints(7)); err != nil {
		t.Fatal(err)
	}
	if got := med.Count("m"); got != 1 {
		t.Fatalf("mediator Count = %d, want 1", got)
	}
	if got := med.Tuples("m"); len(got) != 1 || !got[0].Equal(ints(7)) {
		t.Fatalf("mediator Tuples = %v, want [(7)]", got)
	}
	ans, err := med.LocalQuery(cq.MustParseQuery(`ans(a) :- m(a)`), core.AllAnswers)
	if err != nil || len(ans) != 1 {
		t.Fatalf("mediator LocalQuery = %v, %v; want one answer", ans, err)
	}
	if st := med.ReadStats(); st.Misses != 1 {
		t.Fatalf("mediator read stats = %+v, want the query served by the read path", st)
	}
}

// TestReadPathAnswersAreTheCallers: the rows a read returns are the
// caller's own, on a miss and on a hit: overwriting or appending to them
// leaves the statement's kept answers unchanged.
func TestReadPathAnswersAreTheCallers(t *testing.T) {
	p := newBusPeer(t, transport.NewBus(), "A", "r/2")
	if err := p.Insert("r", ints(1, 10), ints(2, 20)); err != nil {
		t.Fatal(err)
	}
	st := prepared(t, p, `ans(x, y) :- r(x, y)`)
	want := sortedKeys([]relation.Tuple{ints(1, 10), ints(2, 20)})
	for _, what := range []string{"miss", "hit"} {
		got, err := st.LocalQuery(core.AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(got[:1], ints(9, 90))
		got[0] = ints(8, 80)
		_ = append(got, ints(7, 70))
		again, err := st.LocalQuery(core.AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedKeys(again), want) {
			t.Fatalf("after changing the rows of a %s: re-read %v, want %v", what, again, want)
		}
	}
	if st := p.ReadStats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("read stats %+v, want 3 hits / 1 miss", st)
	}
}

// TestReadPathAnswerModesKeepApart: one text read under AllAnswers and
// under CertainAnswers over a relation holding a marked null keeps two
// answers, and each repeat is a hit.
func TestReadPathAnswerModesKeepApart(t *testing.T) {
	p := newBusPeer(t, transport.NewBus(), "A", "r/2")
	if err := p.Insert("r", ints(1, 10), relation.Tuple{relation.Int(2), relation.Null("n1")}); err != nil {
		t.Fatal(err)
	}
	st := prepared(t, p, `ans(x, y) :- r(x, y)`)
	for round := range 2 {
		all, err := st.LocalQuery(core.AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		certain, err := st.LocalQuery(core.CertainAnswers)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 || len(certain) != 1 || !certain[0].Equal(ints(1, 10)) {
			t.Fatalf("round %d: all answers %v, certain answers %v; want both rows, then (1, 10) alone", round, all, certain)
		}
	}
	if st := p.ReadStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("read stats %+v, want 2 hits / 2 misses", st)
	}
}

// TestReadPathConcurrentAnswers races 8 readers of shared statements, in
// both answer modes, against a writer committing one row at a time, with
// more texts than the statement table holds, so statements are evicted and
// prepared again under the race; run with -race. Every answer is the
// query's answer over some committed state, and the table never holds more
// than its bound.
func TestReadPathConcurrentAnswers(t *testing.T) {
	const bound, texts, rows = 4, 6, 40
	p := newBusPeer(t, transport.NewBus(), "A", "r/2")
	p.readPath.stmts = newStmtTable(bound)
	text := func(i int) string { return fmt.Sprintf("ans(k) :- r(k, v), v >= %d", i) }
	row := func(k int) relation.Tuple { return ints(k, k%(texts+1)) }

	// valid[i] holds text i's answer over every committed state: the
	// empty relation and each prefix of the writer's rows.
	valid := make([]map[string]bool, texts)
	in := relation.NewInstance()
	for k := -1; k < rows; k++ {
		if k >= 0 {
			in.Insert("r", row(k))
		}
		for i := range texts {
			ans, err := cq.Eval(cq.MustParseQuery(text(i)), in, cq.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if valid[i] == nil {
				valid[i] = make(map[string]bool)
			}
			valid[i][strings.Join(sortedKeys(ans), ";")] = true
		}
	}

	modes := [2]core.QueryMode{core.AllAnswers, core.CertainAnswers}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + n) % texts
				st, err := p.Prepare(text(i))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := st.LocalQuery(modes[n%2])
				if err != nil {
					t.Error(err)
					return
				}
				if key := strings.Join(sortedKeys(got), ";"); !valid[i][key] {
					t.Errorf("%s answered %v, the answer over no committed state", text(i), got)
					return
				}
				if e := p.ReadStats().Entries; e > bound {
					t.Errorf("statement table holds %d texts, bound %d", e, bound)
					return
				}
			}
		}()
	}
	for k := range rows {
		if err := p.Insert("r", row(k)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestReadPathStaleCountsOutdatedAnswers: Stale counts exactly the lookups
// that found a statement's kept answers outdated, by a commit or by a rule
// change. A first read, a first read under the other answer mode and a
// re-read of current answers are not stale.
func TestReadPathStaleCountsOutdatedAnswers(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1", "s/1")
	newBusPeer(t, bus, "B", "r/1")
	r := prepared(t, a, `ans(x) :- r(x)`)
	s := prepared(t, a, `ans(x) :- s(x)`)
	read := func(st *Statement, mode core.QueryMode) {
		t.Helper()
		if _, err := st.LocalQuery(mode); err != nil {
			t.Fatal(err)
		}
	}
	want := func(what string, hits, misses, stale uint64) {
		t.Helper()
		got := a.ReadStats()
		if got.Hits != hits || got.Misses != misses || got.Stale != stale || got.Entries != 2 {
			t.Fatalf("%s: read stats %+v, want %d hits / %d misses / %d stale / 2 entries", what, got, hits, misses, stale)
		}
	}
	read(r, core.AllAnswers)
	want("first read", 0, 1, 0)
	read(r, core.AllAnswers)
	want("re-read", 1, 1, 0)
	read(r, core.CertainAnswers)
	want("first read under the other mode", 1, 2, 0)

	if err := a.Insert("r", ints(1)); err != nil {
		t.Fatal(err)
	}
	read(r, core.AllAnswers)
	want("read after a commit", 1, 3, 1)
	read(s, core.AllAnswers)
	want("first read of another statement", 1, 4, 1)

	if err := a.Insert("s", ints(2)); err != nil {
		t.Fatal(err)
	}
	read(r, core.AllAnswers)
	read(r, core.CertainAnswers)
	read(s, core.AllAnswers)
	want("reads after a second commit", 1, 7, 4)
	read(r, core.AllAnswers)
	want("re-read after the second commit", 2, 7, 4)

	if err := a.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	read(r, core.AllAnswers)
	want("read after a rule change", 2, 8, 5)
}

// TestFloatConstantIsItsOwnStatement: a query is found by its rendering, so
// the float constant 1.0 must not render like the int 1. After the int
// query, the float query answers what core.EvalQuery does over the same
// data — nothing, since an int never equals a float — instead of the int
// query's cached answers.
func TestFloatConstantIsItsOwnStatement(t *testing.T) {
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/1")
	rows := []relation.Tuple{ints(1), ints(2)}
	if err := p.Insert("r", rows...); err != nil {
		t.Fatal(err)
	}
	in := relation.NewInstance()
	for _, row := range rows {
		in.Insert("r", row)
	}
	cmp := func(c relation.Value) *cq.Query {
		return &cq.Query{
			Head: cq.Atom{Rel: "ans", Terms: []cq.Term{cq.V("x")}},
			Body: []cq.Atom{{Rel: "r", Terms: []cq.Term{cq.V("x")}}},
			Cmps: []cq.Comparison{{Op: cq.OpEq, L: cq.V("x"), R: cq.C(c)}},
		}
	}
	for _, q := range []*cq.Query{cmp(relation.Int(1)), cmp(relation.Float(1))} {
		got, err := p.LocalQuery(q, core.AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.EvalQuery(q, in, core.AllAnswers, cq.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedKeys(got), sortedKeys(want)) {
			t.Errorf("%s: LocalQuery = %v, core.EvalQuery = %v", q, got, want)
		}
	}
	if st := p.ReadStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("read stats %+v, want 0 hits and 2 misses", st)
	}
}
