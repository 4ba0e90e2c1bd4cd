package codb

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"codb/internal/msg"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestNetworkQuickstartFlow(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("hospital", "patient(id int, name string)")
	nw.MustAddPeer("clinic", "visitor(id int, name string)")
	nw.MustAddRule("r1", `hospital.patient(x, n) <- clinic.visitor(x, n)`)
	if err := nw.Insert("clinic", "visitor", Row(Int(1), Str("ann")), Row(Int(2), Str("bob"))); err != nil {
		t.Fatal(err)
	}
	rep, err := nw.Update(ctxT(t), "hospital")
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewTuples != 2 {
		t.Errorf("NewTuples = %d", rep.NewTuples)
	}
	rows, err := nw.LocalQuery("hospital", `ans(n) :- patient(x, n)`, AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestNetworkDistributedQuery(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	nw.Insert("b", "r", Row(Int(5)))
	rows, err := nw.Query(ctxT(t), "a", `ans(x) :- r(x)`, AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != Int(5) {
		t.Errorf("rows = %v", rows)
	}
	// LDB untouched by the query.
	local, _ := nw.LocalQuery("a", `ans(x) :- r(x)`, AllAnswers)
	if len(local) != 0 {
		t.Errorf("local rows = %v", local)
	}
}

func TestNetworkQueryStream(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	for i := 0; i < 20; i++ {
		nw.Insert("b", "r", Row(Int(i)))
	}
	answers, done, err := nw.QueryStream(ctxT(t), "a", `ans(x) :- r(x)`, AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range answers {
		n++
	}
	rep := <-done
	if n != 20 || rep.SID == "" {
		t.Errorf("streamed %d answers, report %+v", n, rep)
	}
}

// largeLocalAnswer is a network whose origin a holds more local rows than a
// channel buffer would take, beside one relevant outgoing link: a query at
// a answers them all inside the session's start.
func largeLocalAnswer(t *testing.T, rows int) *Network {
	t.Helper()
	nw := NewNetwork()
	t.Cleanup(nw.Close)
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	batch := make([]Tuple, rows)
	for i := range batch {
		batch[i] = Row(Int(i))
	}
	if err := nw.Insert("a", "r", batch...); err != nil {
		t.Fatal(err)
	}
	return nw
}

// within fails the test unless fn returns within d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestNetworkQueryLargeLocalAnswer(t *testing.T) {
	nw := largeLocalAnswer(t, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	within(t, 5*time.Second, "Query", func() {
		rows, err := nw.Query(ctx, "a", `ans(x) :- r(x)`, AllAnswers)
		if err != nil {
			t.Error(err)
		} else if len(rows) != 2000 {
			t.Errorf("query returned %d rows, want 2000", len(rows))
		}
	})
}

// TestNetworkAbandonedQueryStream: a stream nobody reads holds up no other
// call on its peer, and once its ctx is cancelled it holds nothing at all:
// its feeding goroutine exits and its waiter is dropped, before the network
// closes.
func TestNetworkAbandonedQueryStream(t *testing.T) {
	nw := largeLocalAnswer(t, 2000)
	// A first query, read to the end, opens the pipes and starts their
	// writers, so the goroutine count below holds only what the stream adds.
	if _, err := nw.Query(ctxT(t), "a", `ans(x) :- r(x)`, AllAnswers); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	within(t, 5*time.Second, "QueryStream", func() {
		if _, _, err := nw.QueryStream(ctx, "a", `ans(x) :- r(x)`, AllAnswers); err != nil {
			t.Error(err)
		}
	})
	within(t, 5*time.Second, "Insert beside an unread stream", func() {
		if err := nw.Insert("a", "r", Row(Int(-1))); err != nil {
			t.Error(err)
		}
	})
	cancel()
	a := nw.Peer("a")
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before || queryReports(a) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines and %d finished queries 5 s after the cancel; want at most %d and 2",
				runtime.NumGoroutine(), queryReports(a), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := waiters(a); n != 0 {
		t.Fatalf("peer a holds %d waiters after the cancelled stream", n)
	}
}

// queryReports counts the distributed queries a peer has finished.
func queryReports(p *Peer) int {
	n := 0
	for _, rep := range p.Reports() {
		if rep.Kind == msg.KindQuery {
			n++
		}
	}
	return n
}

// waiters is the size of a peer's waiter table, read by reflection: the
// table belongs to the actor loop, so callers read it only once the peer
// runs no session and no caller is left to drop a waiter. Reports runs on
// the loop first, so whatever was queued before the call has run.
func waiters(p *Peer) int {
	p.Reports()
	return reflect.ValueOf(p).Elem().FieldByName("waiting").Len()
}

func TestNetworkFromConfig(t *testing.T) {
	nw, err := NewNetworkFromConfig(`version 1
node a
  rel r(x int)
end
node b
  rel r(x int)
end
rule r1: a.r(x) <- b.r(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Insert("b", "r", Row(Int(1)))
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	rows, _ := nw.LocalQuery("a", `ans(x) :- r(x)`, AllAnswers)
	if len(rows) != 1 {
		t.Errorf("rows = %v", rows)
	}
	if len(nw.Peers()) != 2 {
		t.Errorf("Peers = %v", nw.Peers())
	}
}

func TestNetworkMediator(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	if _, err := nw.AddMediator("m", "r(x int)"); err != nil {
		t.Fatal(err)
	}
	nw.MustAddPeer("c", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- m.r(x)`)
	nw.MustAddRule("r2", `m.r(x) <- c.r(x)`)
	nw.Insert("c", "r", Row(Int(7)))
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	rows, _ := nw.LocalQuery("a", `ans(x) :- r(x)`, AllAnswers)
	if len(rows) != 1 {
		t.Errorf("rows through mediator = %v", rows)
	}
}

func TestNetworkDurablePeer(t *testing.T) {
	dir := t.TempDir()
	nw := NewNetwork()
	nw2 := NewNetwork()
	defer nw.Close()
	defer nw2.Close()
	if _, err := nw.AddDurablePeer("d", dir, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	nw.Insert("d", "r", Row(Int(42)))
	nw.Close()

	// Restart: state must be recovered from the WAL.
	if _, err := nw2.AddDurablePeer("d", dir, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	rows, err := nw2.LocalQuery("d", `ans(x) :- r(x)`, AllAnswers)
	if err != nil || len(rows) != 1 {
		t.Errorf("recovered rows = %v, %v", rows, err)
	}
}

func TestNetworkSuperPeer(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	nw.Insert("b", "r", Row(Int(1)))
	sp, err := nw.SuperPeer()
	if err != nil {
		t.Fatal(err)
	}
	if sp2, _ := nw.SuperPeer(); sp2 != sp {
		t.Error("SuperPeer not memoised")
	}
	rep, err := sp.StartUpdate(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Origin != "a" {
		t.Errorf("report = %+v", rep)
	}
}

func TestNetworkErrors(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	if _, err := nw.AddPeer("a", "r(x int)"); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := nw.AddPeer("bad", "r(x blob)"); err == nil {
		t.Error("bad declaration accepted")
	}
	if err := nw.AddRule("r1", `a.r(x) <- ghost.r(x)`); err == nil {
		t.Error("rule to missing peer accepted")
	}
	if err := nw.AddRule("r1", "nonsense"); err == nil {
		t.Error("unparsable rule accepted")
	}
	if err := nw.Insert("ghost", "r", Row(Int(1))); err == nil {
		t.Error("insert into missing peer accepted")
	}
	if _, err := nw.Update(ctxT(t), "ghost"); err == nil {
		t.Error("update at missing peer accepted")
	}
	if _, err := nw.Query(ctxT(t), "ghost", `ans(x) :- r(x)`, AllAnswers); err == nil {
		t.Error("query at missing peer accepted")
	}
	if _, err := nw.Query(ctxT(t), "a", `broken`, AllAnswers); err == nil {
		t.Error("broken query accepted")
	}
	if _, err := nw.LocalQuery("ghost", `ans(x) :- r(x)`, AllAnswers); err == nil {
		t.Error("local query at missing peer accepted")
	}
	if _, _, err := nw.QueryStream(ctxT(t), "ghost", `ans(x) :- r(x)`, AllAnswers); err == nil {
		t.Error("stream at missing peer accepted")
	}
	if _, err := NewNetworkFromConfig("garbage"); err == nil {
		t.Error("garbage config accepted")
	}
}

func TestNetworkRemovePeer(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	nw.RemovePeer("b")
	if nw.Peer("b") != nil {
		t.Error("b still present")
	}
	// Updates still terminate without b (compensation).
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkCyclicExistentialTerminates(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int, z int)")
	nw.MustAddPeer("b", "s(x int)")
	nw.MustAddRule("r1", `a.r(x, z) <- b.s(x)`)
	nw.MustAddRule("r2", `b.s(z) <- a.r(x, z)`)
	nw.Insert("b", "s", Row(Int(1)))
	rep, err := nw.Update(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.SID == "" {
		t.Error("no report")
	}
	rows, _ := nw.LocalQuery("a", `ans(x, z) :- r(x, z)`, AllAnswers)
	// r2 never ships the null a minted, so a.r keeps its one row.
	if len(rows) != 1 {
		t.Errorf("a.r = %v, want 1 row", rows)
	}
}

func TestNetworkScopedUpdate(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)", "z(x int)")
	nw.MustAddPeer("b", "r(x int)", "z(x int)")
	nw.MustAddRule("rr", `a.r(x) <- b.r(x)`)
	nw.MustAddRule("rz", `a.z(x) <- b.z(x)`)
	nw.Insert("b", "r", Row(Int(1)))
	nw.Insert("b", "z", Row(Int(2)))
	rep, err := nw.ScopedUpdate(ctxT(t), "a", "r")
	if err != nil {
		t.Fatal(err)
	}
	if rep.SID == "" {
		t.Error("no report")
	}
	rRows, _ := nw.LocalQuery("a", `ans(x) :- r(x)`, AllAnswers)
	zRows, _ := nw.LocalQuery("a", `ans(x) :- z(x)`, AllAnswers)
	if len(rRows) != 1 || len(zRows) != 0 {
		t.Errorf("scoped update: r=%v z=%v", rRows, zRows)
	}
	if _, err := nw.ScopedUpdate(ctxT(t), "ghost", "r"); err == nil {
		t.Error("scoped update at missing peer accepted")
	}
}

func TestRowAndValueHelpers(t *testing.T) {
	r := Row(Int(1), Float(2.5), Str("x"), Bool(true), Null("n"))
	if len(r) != 5 || !strings.Contains(r.String(), "2.5") {
		t.Errorf("Row = %v", r)
	}
	if _, err := ParseConfig("version 1\n"); err != nil {
		t.Errorf("ParseConfig: %v", err)
	}
}
