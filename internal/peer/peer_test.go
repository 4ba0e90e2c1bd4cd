package peer

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newBusPeer builds a peer on the bus with relations declared as "name/arity"
// over ints.
func newBusPeer(t testing.TB, bus *transport.Bus, name string, rels ...string) *Peer {
	t.Helper()
	return newPeerOn(t, bus.MustJoin(name), name, rels...)
}

// newPeerOn builds a peer on the given transport with relations declared as
// "name/arity" over ints.
func newPeerOn(t testing.TB, tr transport.Transport, name string, rels ...string) *Peer {
	t.Helper()
	db := storage.MustOpenMem()
	for _, spec := range rels {
		relName := spec[:len(spec)-2]
		arity := int(spec[len(spec)-1] - '0')
		attrs := make([]relation.Attr, arity)
		for i := range attrs {
			attrs[i] = relation.Attr{Name: string(rune('a' + i)), Type: relation.TInt}
		}
		if err := db.DefineRelation(&relation.RelDef{Name: relName, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(Options{Name: name, Transport: tr, Wrapper: core.NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func ints(vs ...int) relation.Tuple {
	t := make(relation.Tuple, len(vs))
	for i, v := range vs {
		t[i] = relation.Int(v)
	}
	return t
}

func TestPeerUpdateChainOverBus(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	c := newBusPeer(t, bus, "C", "r/1")
	for _, p := range []*Peer{a, b, c} {
		for id, text := range map[string]string{
			"r1": `A.r(x) <- B.r(x)`,
			"r2": `B.r(x) <- C.r(x)`,
		} {
			if err := p.AddRule(id, text); err != nil {
				// Foreign rules are rejected; that is fine.
				continue
			}
		}
	}
	if err := c.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("r", ints(3)); err != nil {
		t.Fatal(err)
	}

	rep, err := a.RunUpdate(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Count("r") != 3 {
		t.Errorf("A.r = %d tuples, want 3", a.Count("r"))
	}
	if rep.Origin != "A" || rep.EndUnixNano < rep.StartUnixNano {
		t.Errorf("report = %+v", rep)
	}
	if b.Count("r") != 3 {
		t.Errorf("B.r = %d tuples, want 3", b.Count("r"))
	}
}

func TestPeerDistributedQueryOverBus(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.Insert("r", ints(7))
	a.Insert("r", ints(1))

	got, err := a.Query(ctxT(t), cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
	// The fetch must not have materialised into A's LDB.
	if a.Count("r") != 1 {
		t.Errorf("A.r = %d after query, want 1", a.Count("r"))
	}
	// Local query sees only local data.
	local, err := a.LocalQuery(cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
	if err != nil || len(local) != 1 {
		t.Errorf("local = %v, %v", local, err)
	}
}

func TestPeerConcurrentQueries(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1", "z/1")
	b := newBusPeer(t, bus, "B", "r/1", "z/1")
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	a.AddRule("r2", `A.z(x) <- B.z(x)`)
	b.Insert("r", ints(1), ints(2))
	b.Insert("z", ints(10))

	type res struct {
		n   int
		err error
	}
	ch := make(chan res, 2)
	go func() {
		got, err := a.Query(ctxT(t), cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
		ch <- res{len(got), err}
	}()
	go func() {
		got, err := a.Query(ctxT(t), cq.MustParseQuery(`ans(x) :- z(x)`), core.AllAnswers)
		ch <- res{len(got), err}
	}()
	counts := map[int]bool{}
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		counts[r.n] = true
	}
	if !counts[2] || !counts[1] {
		t.Errorf("concurrent query answer counts = %v", counts)
	}
}

func TestPeerConfigBroadcastAndDynamicReconfig(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A")
	b := newBusPeer(t, bus, "B")
	c := newBusPeer(t, bus, "C")

	cfg1, err := config.Parse(`version 1
node A
  rel r(x int)
end
node B
  rel r(x int)
end
node C
  rel r(x int)
end
rule r1: A.r(x) <- B.r(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{a, b, c} {
		if err := p.ApplyConfig(cfg1, 1); err != nil {
			t.Fatal(err)
		}
	}
	b.Insert("r", ints(1))
	c.Insert("r", ints(2))
	if _, err := a.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if a.Count("r") != 1 {
		t.Errorf("A.r = %d, want 1 (only B linked)", a.Count("r"))
	}

	// Reconfigure: now A imports from C instead.
	cfg2, err := config.Parse(`version 2
node A
  rel r(x int)
end
node B
  rel r(x int)
end
node C
  rel r(x int)
end
rule r2: A.r(x) <- C.r(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{a, b, c} {
		if err := p.ApplyConfig(cfg2, 2); err != nil {
			t.Fatal(err)
		}
	}
	outgoing, _ := a.Links()
	if len(outgoing) != 1 || outgoing[0] != "r2" {
		t.Errorf("A outgoing after reconfig = %v", outgoing)
	}
	if _, err := a.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if a.Count("r") != 2 {
		t.Errorf("A.r = %d after second update, want 2", a.Count("r"))
	}
}

// TestDroppedAcquaintanceEndsQueryInFlight: a reconfiguration that drops
// the only acquaintance a distributed query waits on writes that peer off,
// so the query ends with the answers it has instead of hanging until its
// context expires.
func TestDroppedAcquaintanceEndsQueryInFlight(t *testing.T) {
	bus := transport.NewBus()
	part := transport.NewPartitioner(bus.MustJoin("A"))
	a := newPeerOn(t, part, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	cfg := func(version int, rules string) *config.Config {
		c, err := config.Parse(fmt.Sprintf("version %d\nnode A\n  rel r(x int)\nend\nnode B\n  rel r(x int)\nend\n%s", version, rules))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	linked := cfg(1, "rule r1: A.r(x) <- B.r(x)\n")
	for _, p := range []*Peer{a, b} {
		if err := p.ApplyConfig(linked, 1); err != nil {
			t.Fatal(err)
		}
	}
	a.Insert("r", ints(1))
	b.Insert("r", ints(2))

	// Hold everything B sends A: the query's request reaches B, but B's
	// data and acknowledgements never come back.
	part.BlockInbound("B")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type answer struct {
		got []relation.Tuple
		err error
	}
	done := make(chan answer, 1)
	go func() {
		got, err := a.Query(ctx, cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
		done <- answer{got, err}
	}()
	waitFor(t, "B's answer to the query", func() bool {
		var active int
		a.do(func() { active = len(a.node.ActiveSessions()) })
		_, in := part.Dropped()
		return active > 0 && in > 0
	})

	if err := a.ApplyConfig(cfg(2, ""), 2); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("query toward the dropped acquaintance: %v", res.err)
	}
	if len(res.got) != 1 || !res.got[0].Equal(ints(1)) {
		t.Errorf("answers = %v, want A's own (1)", res.got)
	}
}

func TestPeerUpdateOverTCP(t *testing.T) {
	mk := func(name string) (*Peer, *transport.TCP) {
		tr, err := transport.NewTCP(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		db := storage.MustOpenMem()
		db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}})
		p, err := New(Options{Name: name, Transport: tr, Wrapper: core.NewStoreWrapper(db)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p, tr
	}
	a, _ := mk("A")
	b, trB := mk("B")
	c, trC := mk("C")

	dir := map[string]string{"B": trB.Addr(), "C": trC.Addr()}
	a.SetDirectory(dir)
	b.SetDirectory(map[string]string{"C": trC.Addr()})

	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.AddRule("r2", `B.r(x) <- C.r(x)`)
	c.Insert("r", ints(11), ints(12))
	b.Insert("r", ints(13))

	if _, err := a.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if a.Count("r") != 3 {
		t.Errorf("A.r over TCP = %d, want 3", a.Count("r"))
	}
}

func TestPeerUpdateSurvivesDepartedNode(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.Insert("r", ints(1))

	// First update establishes the topology.
	if _, err := a.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	// B leaves; the next update must still terminate (compensation).
	b.Stop()
	rep, err := a.RunUpdate(ctxT(t))
	if err != nil {
		t.Fatalf("update with departed peer: %v", err)
	}
	if rep.Origin != "A" {
		t.Errorf("report = %+v", rep)
	}
}

func TestPeerDiscoveryGossip(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	c := newBusPeer(t, bus, "C", "r/1")
	// A knows C only through its directory; B learns of C via gossip when
	// A opens the pipe.
	a.SetDirectory(map[string]string{"C": ""})
	_ = c
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.Insert("r", ints(1))
	if _, err := a.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, d := range b.Discovered() {
			if d == "C" {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("B never discovered C; discovered = %v", b.Discovered())
}

func TestPeerStartUpdateCmd(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	sup := newBusPeer(t, bus, "SUPER")
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.AddRule("r1", `A.r(x) <- B.r(x)`)
	b.Insert("r", ints(5))

	done := make(chan msg.StatsReport, 1)
	sup.SetStatsSink(func(rep msg.StatsReport) { done <- rep })
	if err := sup.SendTo("A", &msg.StartUpdateCmd{SID: "remote-1", ReplyTo: "SUPER"}); err != nil {
		t.Fatal(err)
	}
	select {
	case rep := <-done:
		if rep.Node != "A" || rep.ID != "remote-1" {
			t.Errorf("finished report = %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("super never heard the update finish")
	}
	if a.Count("r") != 1 {
		t.Errorf("A.r = %d after remote-commanded update", a.Count("r"))
	}
}

func TestPeerRunUpdateTimeout(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A lonely update finishes synchronously before the ctx check matters;
	// use a context already cancelled plus a peer with a live session.
	if _, err := a.RunUpdate(ctx); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
}

func TestPeerValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/1")
	if err := p.AddRule("bad", `B.r(x) <- C.r(x)`); err == nil {
		t.Error("foreign rule accepted")
	}
	if err := p.Insert("ghost", ints(1)); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	p.Stop()
	p.Stop() // idempotent
	if err := p.Insert("r", ints(1)); err == nil {
		t.Error("insert after stop accepted")
	}
}

func TestPeerTuplesAndSchema(t *testing.T) {
	bus := transport.NewBus()
	p := newBusPeer(t, bus, "A", "r/2")
	p.Insert("r", ints(1, 2))
	got := p.Tuples("r")
	if len(got) != 1 || !got[0].Equal(ints(1, 2)) {
		t.Errorf("Tuples = %v", got)
	}
	if p.Schema().Rel("r") == nil {
		t.Error("Schema missing r")
	}
	if p.Name() != "A" {
		t.Error("Name wrong")
	}
	if len(p.Rules()) != 0 {
		t.Error("Rules nonempty")
	}
}

func TestPeerQueryStreamDelivery(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	a.AddRule("r1", `A.r(x) <- B.r(x)`)
	for i := 0; i < 50; i++ {
		b.Insert("r", ints(i))
	}
	answers, done, err := a.QueryStream(ctxT(t), cq.MustParseQuery(`ans(x) :- r(x)`), core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for range answers {
		count++
	}
	<-done
	if count != 50 {
		t.Errorf("streamed %d answers, want 50", count)
	}
}

func TestPeerManyPeersStar(t *testing.T) {
	bus := transport.NewBus()
	hub := newBusPeer(t, bus, "HUB", "r/1")
	const n = 8
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("L%d", i)
		leaf := newBusPeer(t, bus, name, "r/1")
		rule := fmt.Sprintf(`HUB.r(x) <- %s.r(x)`, name)
		id := fmt.Sprintf("r%d", i)
		hub.AddRule(id, rule)
		leaf.AddRule(id, rule)
		leaf.Insert("r", ints(i))
	}
	if _, err := hub.RunUpdate(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if hub.Count("r") != n {
		t.Errorf("HUB.r = %d, want %d", hub.Count("r"), n)
	}
}

// hold parks p's actor loop until the returned release is called, so what
// p is sent meanwhile waits in its queue.
func hold(p *Peer) (release func()) {
	gate, parked := make(chan struct{}), make(chan struct{})
	p.events.put(func() { close(parked); <-gate })
	<-parked
	return func() { close(gate) }
}

// TestWaitersAreDropped walks every path that adds or drops a waiter: after
// each, the peer holds no waiter and runs no session.
func TestWaitersAreDropped(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	b := newBusPeer(t, bus, "B", "r/1")
	sp := newBusPeer(t, bus, "S")
	for _, p := range []*Peer{a, b} {
		if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Insert("r", ints(1), ints(2)); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery(`ans(x) :- r(x)`)
	short := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		t.Cleanup(cancel)
		return ctx
	}
	settled := func(path string) {
		t.Helper()
		waitFor(t, path+": waiters and sessions gone", func() bool {
			var waiting, active int
			a.do(func() { waiting, active = len(a.waiting), len(a.node.ActiveSessions()) })
			return waiting == 0 && active == 0
		})
	}

	if rows, err := a.Query(ctxT(t), q, core.AllAnswers); err != nil || len(rows) != 2 {
		t.Fatalf("query: %v, %v", rows, err)
	}
	settled("Query completes")

	release := hold(b)
	if _, err := a.Query(short(), q, core.AllAnswers); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query past its ctx: %v", err)
	}
	release()
	settled("Query's ctx expires")

	answers, done, err := a.QueryStream(ctxT(t), q, core.AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	for range answers {
	}
	if _, ok := <-done; !ok {
		t.Fatal("drained stream closed without a report")
	}
	settled("QueryStream is drained")

	release = hold(b)
	ctx, cancel := context.WithCancel(context.Background())
	if answers, done, err = a.QueryStream(ctx, q, core.AllAnswers); err != nil {
		t.Fatal(err)
	}
	cancel()
	for range answers {
	}
	if rep, ok := <-done; ok {
		t.Fatalf("cancelled stream reported %+v", rep)
	}
	release()
	settled("QueryStream is cancelled")

	release = hold(b)
	if _, err := a.RunUpdate(short()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("update past its ctx: %v", err)
	}
	release()
	settled("RunUpdate's ctx expires, then the session finishes")

	if _, err := a.PullLink(ctxT(t), "r1"); err != nil {
		t.Fatal(err)
	}
	settled("PullLink runs")

	// S stands in for the super-peer: it sends the command and collects the
	// completion through its stats sink, as internal/superpeer does.
	finished := make(chan msg.StatsReport, 1)
	sp.SetStatsSink(func(r msg.StatsReport) { finished <- r })
	if err := sp.SendTo("A", &msg.StartUpdateCmd{SID: "remote-1", ReplyTo: "S"}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-finished:
		if r.ID != "remote-1" || r.Node != "A" {
			t.Fatalf("completion report %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no completion report for the remote update")
	}
	settled("a remote StartUpdateCmd")
}
