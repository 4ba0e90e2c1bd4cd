package peer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// prepared prepares a text at p, failing the test on a parse error.
func prepared(t testing.TB, p *Peer, text string) *Statement {
	t.Helper()
	st, err := p.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatementRelinksOnRuleChange: a statement prepared while its relation
// had no outgoing link must see a lazy link declared afterwards — the next
// read of the same text counts demand on it and pulls it, because the
// statement's links are re-derived when the published rule set moves.
func TestStatementRelinksOnRuleChange(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	if err := b.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}
	const text = `ans(x) :- r(x)`
	st := prepared(t, a, text)
	if got, err := st.LocalQuery(core.AllAnswers); err != nil || len(got) != 0 {
		t.Fatalf("first read = %v (err %v), want no answers", got, err)
	}

	for _, p := range []*Peer{a, b} {
		if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
			t.Fatal(err)
		}
		if err := p.SetLinkPolicy("r1", "pull", ""); err != nil {
			t.Fatal(err)
		}
	}
	// An update at B ships only a hint over the pull link: A goes stale.
	if _, err := b.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "r1 stale at A", func() bool { return len(a.StaleLinks()) == 1 })

	if again := prepared(t, a, text); again != st {
		t.Fatal("the same text was prepared twice")
	}
	got, err := st.LocalQuery(core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read after the stale hint = %v, want the 2 pulled rows", got)
	}
	a.prop.mu.Lock()
	reads := a.prop.links["r1"].reads
	a.prop.mu.Unlock()
	if reads != 1 {
		t.Fatalf("demand on r1 = %d reads, want 1", reads)
	}
	if stale := a.StaleLinks(); len(stale) != 0 {
		t.Fatalf("r1 still stale after the read's pull: %v", stale)
	}
}

// TestStatementGoesDistributedWhenRuleAppears: a text first served by the
// local bypass must start a distributed session once a relevant outgoing
// link appears.
func TestStatementGoesDistributedWhenRuleAppears(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	if err := a.Insert("r", ints(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("r", ints(2), ints(3)); err != nil {
		t.Fatal(err)
	}
	st := prepared(t, a, `ans(x) :- r(x)`)
	answers, done, err := st.QueryStream(ctxT(t), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range answers {
		n++
	}
	if rep := <-done; n != 1 || rep.CacheHits+rep.CacheMisses != 1 {
		t.Fatalf("bypass: %d answers, report %+v; want 1 answer from one cache lookup", n, rep)
	}

	for _, p := range []*Peer{a, b} {
		if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
			t.Fatal(err)
		}
	}
	got, err := prepared(t, a, `ans(x) :- r(x)`).Query(ctxT(t), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("query after r1 appeared = %v, want A's row and B's two", got)
	}
	if got := a.ReadStats(); got.Hits+got.Misses != 1 {
		t.Fatalf("read-path lookups = %+v; the second query must not have taken the bypass", got)
	}
}

// TestStatementTableBound: more distinct texts than the table's bound keep
// the table at the bound, and every answer stays correct, evicted texts
// included.
func TestStatementTableBound(t *testing.T) {
	const bound, texts = 4, 11
	db := storage.MustOpenMem()
	t.Cleanup(func() { db.Close() })
	if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Options{Name: "A", Transport: transport.NewBus().MustJoin("A"), Wrapper: core.NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	p.readPath.stmts = newStmtTable(bound)
	for k := range texts {
		if err := p.Insert("r", ints(k, 10*k)); err != nil {
			t.Fatal(err)
		}
	}
	for round := range 3 {
		for k := range texts {
			// A hot text between every cold one must survive the churn.
			for _, key := range []int{0, k} {
				st := prepared(t, p, fmt.Sprintf("ans(v) :- r(%d, v)", key))
				got, err := st.LocalQuery(core.AllAnswers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0][0] != relation.Int(10*key) {
					t.Fatalf("round %d: key %d answered %v, want [(%d)]", round, key, got, 10*key)
				}
			}
			if n := p.readPath.stmts.ll.Len(); n > bound {
				t.Fatalf("statement table holds %d texts, bound %d", n, bound)
			}
		}
	}
	if n := p.readPath.stmts.ll.Len(); n != bound {
		t.Fatalf("statement table holds %d texts after %d distinct ones, want the bound %d", n, texts, bound)
	}
	hot := prepared(t, p, "ans(v) :- r(0, v)")
	if again := prepared(t, p, "ans(v) :- r(0, v)"); again != hot {
		t.Fatal("the hot text was evicted")
	}
}

// TestStatementConcurrentRuleBroadcast races readers of shared statements
// against rule broadcasts that alternately add and drop the link their
// relation is fed by; run with -race. Every answer is either A's own rows
// or A's plus B's (a distributed query while the link is up), and once the
// last broadcast has landed the same statement goes distributed. A
// broadcast without the link drops B as an acquaintance, so it also writes
// off any distributed query in flight toward B.
func TestStatementConcurrentRuleBroadcast(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	sender := newBusPeer(t, bus, "seed")
	if err := a.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("r", ints(3), ints(4)); err != nil {
		t.Fatal(err)
	}
	cfg := func(version int, linked bool) string {
		text := fmt.Sprintf("version %d\nnode A\n  rel r(x int)\nend\nnode B\n  rel r(x int)\nend\n", version)
		if linked {
			text += "rule lr: A.r(x) <- B.r(x)\n"
		}
		return text
	}
	const text = `ans(x) :- r(x)`

	ctx := ctxT(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := a.Prepare(text)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					got, err := st.LocalQuery(core.AllAnswers)
					if err != nil || len(got) != 2 {
						t.Errorf("local read = %v (err %v), want A's 2 rows", got, err)
						return
					}
					continue
				}
				got, err := st.Query(ctx, core.AllAnswers)
				if err != nil || (len(got) != 2 && len(got) != 4) {
					t.Errorf("query = %v (err %v), want A's 2 rows or all 4", got, err)
					return
				}
			}
		}()
	}
	const last = 40
	for v := 2; v <= last; v++ {
		if err := sender.SendTo("A", &msg.RulesBroadcast{Version: v, Text: cfg(v, v%2 == 0)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, p := range []*Peer{a, b} {
		waitFor(t, "the last broadcast at "+p.Name(), func() bool {
			var v int
			p.do(func() { v = p.rulesVersion })
			return v == last
		})
	}
	close(stop)
	wg.Wait()

	got, err := prepared(t, a, text).Query(ctxT(t), core.AllAnswers)
	if err != nil || len(got) != 4 {
		t.Fatalf("query after the last broadcast = %v (err %v), want all 4 rows", got, err)
	}
}

// TestLocalQueryHitAllocs pins the cost of a hot read: a repeated text
// answered from the statement's kept answers allocates only their copy.
func TestLocalQueryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	p, text := hotReadPeer(t)
	allocs := testing.AllocsPerRun(200, func() {
		st, err := p.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.LocalQuery(core.AllAnswers); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a hot read allocates %.1f times, want only the answers copy", allocs)
	}
}

// hotReadPeer builds a peer whose relation feeds an outgoing link (so a
// read runs the demand step) and returns a text already in its statement
// table, with its answers kept.
func hotReadPeer(tb testing.TB) (*Peer, string) {
	tb.Helper()
	bus := transport.NewBus()
	a := newBusPeer(tb, bus, "A", "r/2")
	newBusPeer(tb, bus, "B", "r/2")
	if err := a.AddRule("r1", `A.r(x, y) <- B.r(x, y)`); err != nil {
		tb.Fatal(err)
	}
	if err := a.Insert("r", ints(1, 10), ints(2, 20), ints(3, 10)); err != nil {
		tb.Fatal(err)
	}
	const text = `ans(x) :- r(x, 10)`
	if _, err := prepared(tb, a, text).LocalQuery(core.AllAnswers); err != nil {
		tb.Fatal(err)
	}
	return a, text
}

// BenchmarkLocalQueryHit measures a hot read: a repeated text answered from
// the statement table and the statement's kept answers.
func BenchmarkLocalQueryHit(b *testing.B) {
	p, text := hotReadPeer(b)
	b.ReportAllocs()
	for b.Loop() {
		st, err := p.Prepare(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.LocalQuery(core.AllAnswers); err != nil {
			b.Fatal(err)
		}
	}
}
