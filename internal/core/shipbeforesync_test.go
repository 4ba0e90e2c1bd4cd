package core

import (
	"testing"
	"time"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// gatedWrapper is a store whose session commit (the flush of staged tuples)
// stops at a gate the test holds: everything that happens before the gate
// opens happened before the local sync completed.
type gatedWrapper struct {
	*StoreWrapper
	atGate  func() // runs on the committing goroutine as it reaches the gate
	entered chan struct{}
	gate    chan struct{}
	commits int
}

func newGatedWrapper(db *storage.DB) *gatedWrapper {
	return &gatedWrapper{StoreWrapper: NewStoreWrapper(db), entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (w *gatedWrapper) InsertKeyed(rows []relation.Row) ([]bool, error) {
	w.commits++
	if w.atGate != nil {
		w.atGate()
	}
	w.entered <- struct{}{}
	<-w.gate
	return w.StoreWrapper.InsertKeyed(rows)
}

// reached waits for a commit to arrive at the gate.
func (w *gatedWrapper) reached(t *testing.T) {
	t.Helper()
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no commit reached the gate")
	}
}

// handle delivers one message and fails the test if handling it waits for a
// commit: nothing may be committed before the burst is flushed.
func handle(t *testing.T, n *Node, env msg.Envelope) Result {
	t.Helper()
	done := make(chan Result, 1)
	go func() { done <- n.Handle(env) }()
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("Handle is waiting at the commit gate: the hop committed before it shipped")
		return Result{}
	}
}

func ints(rows ...[2]int) []relation.Tuple {
	out := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		out[i] = relation.Tuple{relation.Int(r[0]), relation.Int(r[1])}
	}
	return out
}

// sentMsgs indexes a Result's messages by kind, keeping their positions.
type sentMsgs struct {
	data, acks, dones, requests []int // indexes into Out
}

func classify(res Result) sentMsgs {
	var m sentMsgs
	for i, o := range res.Out {
		switch o.Payload.(type) {
		case *msg.SessionData:
			m.data = append(m.data, i)
		case *msg.SessionAck:
			m.acks = append(m.acks, i)
		case *msg.SessionDone:
			m.dones = append(m.dones, i)
		case *msg.SessionRequest:
			m.requests = append(m.requests, i)
		}
	}
	return m
}

// notYet fails the test if the channel delivers within a grace period: the
// goroutine behind it must still be held at the gate.
func notYet[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s before the gate opened", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestHopShipsBeforeItSyncsAndAcksAfter drives one materialising hop by hand:
// node mid imports r from src and exports to dst through a copy rule or a
// self-join. A data message's derived delta must be in the Result (deferred
// mode) or counted as sent (non-deferred mode) before the commit gate opens;
// its acknowledgement only after; the LDB never shows a staged tuple; two
// data messages of one burst share one commit; and the join is evaluated
// over snapshot ∪ staged tuples, which the oracle's fixpoint confirms.
func TestHopShipsBeforeItSyncsAndAcksAfter(t *testing.T) {
	const sid = "s1"
	const inText = `mid.r(x, y) <- src.r(x, y)`
	cases := []struct {
		name, outText, outRel string
	}{
		{"copy", `dst.r(x, y) <- mid.r(x, y)`, "r"},
		{"self-join", `dst.p(x, z) <- mid.r(x, y), mid.r(y, z)`, "p"},
	}
	for _, tc := range cases {
		for _, deferred := range []bool{true, false} {
			mode := "inline"
			if deferred {
				mode = "deferred"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				db := newTestDB(t, "r/2")
				defer db.Close()
				w := newGatedWrapper(db)
				n, err := NewNode(Config{Self: "mid", Wrapper: w})
				if err != nil {
					t.Fatal(err)
				}
				for id, text := range map[string]string{"in": inText, "out": tc.outText} {
					if err := n.AddRule(id, text); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.InsertMany("r", ints([2]int{1, 2})); err != nil {
					t.Fatal(err)
				}

				// dst engages mid (and becomes its parent in the detector), so
				// src's data message is owed an acknowledgement of its own.
				joined := n.Handle(msg.Envelope{From: "dst", Payload: &msg.SessionRequest{
					SID: sid, Kind: msg.KindUpdate, Origin: "dst", Path: []string{"dst"},
					Rules: []msg.RuleDef{{ID: "out", Text: tc.outText}},
				}})
				for _, i := range classify(joined).requests {
					if joined.Out[i].To == "dst" {
						t.Error("the update flood was echoed to the peer that made mid join")
					}
				}
				shipped := append([]Outbound(nil), joined.Out...)

				data := func(seq int, rows ...[2]int) msg.Envelope {
					return msg.Envelope{From: "src", Payload: &msg.SessionData{
						SID: sid, Kind: msg.KindUpdate, Origin: "dst", RuleID: "in",
						Bindings: ints(rows...), Path: []string{"src"}, Seq: seq, Mode: msg.ExportFull,
					}}
				}
				sentToDst := deficitTo(n, sid, "dst")
				var deficitAtGate, ldbAtGate int
				w.atGate = func() {
					deficitAtGate = deficitTo(n, sid, "dst")
					ldbAtGate = db.Count("r")
				}

				var flushed Result
				if deferred {
					n.DeferAcks(true)
					for seq, rows := range [][][2]int{{{2, 3}}, {{3, 4}}} {
						res := handle(t, n, data(seq+1, rows...))
						m := classify(res)
						if len(m.data) == 0 {
							t.Fatalf("message %d: no derived data in the Result handed out before the commit", seq+1)
						}
						if len(m.acks)+len(m.dones)+len(res.Finished) != 0 {
							t.Fatalf("message %d: acks/termination handed out with tuples staged: %+v", seq+1, res.Out)
						}
						shipped = append(shipped, res.Out...)
					}
					if w.commits != 0 || db.Count("r") != 1 {
						t.Fatalf("before the flush: %d commits, LDB holds %d rows; want 0 and 1", w.commits, db.Count("r"))
					}
					done := make(chan Result, 1)
					go func() { done <- n.FlushDeferred() }()
					w.reached(t)
					notYet(t, done, "FlushDeferred returned")
					if got := db.Count("r"); got != 1 {
						t.Fatalf("a reader of the LDB sees %d rows while the commit waits; want 1", got)
					}
					close(w.gate)
					flushed = <-done
				} else {
					done := make(chan Result, 1)
					go func() { done <- n.Handle(data(1, [2]int{2, 3}, [2]int{3, 4})) }()
					w.reached(t)
					notYet(t, done, "Handle returned (so acks could leave)")
					close(w.gate)
					flushed = <-done
					if deficitAtGate <= sentToDst {
						t.Fatalf("at the gate %d messages were counted as sent to dst, %d before the data arrived: the delta was not derived before the commit",
							deficitAtGate, sentToDst)
					}
					if ldbAtGate != 1 {
						t.Fatalf("LDB held %d rows at the gate, want 1", ldbAtGate)
					}
					m := classify(flushed)
					if len(m.data) == 0 || len(m.acks) == 0 || m.data[len(m.data)-1] > m.acks[0] {
						t.Fatalf("want derived data ahead of the ack in Out, got %+v", flushed.Out)
					}
					shipped = append(shipped, flushed.Out...)
				}

				if w.commits != 1 {
					t.Errorf("%d commits for the burst, want 1", w.commits)
				}
				if got := db.Count("r"); got != 3 {
					t.Errorf("LDB holds %d rows after the flush, want 3", got)
				}
				acked := 0
				for _, i := range classify(flushed).acks {
					if a := flushed.Out[i]; a.To == "src" {
						acked += a.Payload.(*msg.SessionAck).N
					}
				}
				if want := map[bool]int{true: 2, false: 1}[deferred]; acked != want {
					t.Errorf("src was acknowledged %d messages after the commit, want %d", acked, want)
				}

				// What mid shipped to dst over the session, applied there, is
				// the oracle's fixpoint: the delta saw snapshot ∪ staged.
				outRule := cq.MustParseRule("out", tc.outText)
				rules := []*cq.Rule{cq.MustParseRule("in", inText), outRule}
				start := map[string]relation.Instance{
					"src": relation.NewInstance(), "mid": relation.NewInstance(), "dst": relation.NewInstance(),
				}
				for _, tup := range ints([2]int{2, 3}, [2]int{3, 4}) {
					start["src"].Insert("r", tup)
				}
				start["mid"].Insert("r", ints([2]int{1, 2})[0])
				fix, _, err := chase.Fixpoint(rules, start, chase.Options{})
				if err != nil {
					t.Fatal(err)
				}
				applier, err := chase.NewApplier(outRule, chase.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := relation.NewInstance()
				sawDelta := false
				for _, o := range shipped {
					d, ok := o.Payload.(*msg.SessionData)
					if !ok || o.To != "dst" {
						continue
					}
					sawDelta = sawDelta || d.Mode == msg.ExportSessionDelta
					for _, f := range applier.Facts(d.Bindings) {
						got.Insert(f.Rel, f.Tuple)
					}
				}
				if !sawDelta {
					t.Error("no in-session delta was shipped to dst")
				}
				want := fix["dst"].Tuples(tc.outRel)
				have := got.Tuples(tc.outRel)
				if len(want) == 0 || len(have) != len(want) {
					t.Fatalf("dst would hold %v, oracle %v", have, want)
				}
				for i := range want {
					if !want[i].Equal(have[i]) {
						t.Fatalf("dst would hold %v, oracle %v", have, want)
					}
				}
			})
		}
	}
}

// TestTerminationWaitsForTheCommit: at an initiator, the data message and
// the acknowledgement that empties the deficit arrive in one burst. The
// termination verdict — the Finished report and the completion flood — must
// not be handed out until the staged tuples are committed; nor may a
// completion notice from elsewhere finish a session over staged tuples.
func TestTerminationWaitsForTheCommit(t *testing.T) {
	newTop := func(t *testing.T) (*Node, *gatedWrapper, *storage.DB) {
		db := newTestDB(t, "r/2")
		t.Cleanup(func() { db.Close() })
		w := newGatedWrapper(db)
		n, err := NewNode(Config{Self: "top", Wrapper: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddRule("in", `top.r(x, y) <- src.r(x, y)`); err != nil {
			t.Fatal(err)
		}
		return n, w, db
	}
	data := func(sid, origin string) msg.Envelope {
		return msg.Envelope{From: "src", Payload: &msg.SessionData{
			SID: sid, Kind: msg.KindUpdate, Origin: origin, RuleID: "in",
			Bindings: ints([2]int{7, 8}), Path: []string{"src"}, Seq: 1, Mode: msg.ExportFull,
		}}
	}

	t.Run("initiator", func(t *testing.T) {
		n, w, db := newTop(t)
		if _, err := n.StartUpdate("s1"); err != nil {
			t.Fatal(err)
		}
		n.DeferAcks(true)
		for _, env := range []msg.Envelope{data("s1", "top"), {From: "src", Payload: &msg.SessionAck{SID: "s1", N: 1}}} {
			if res := handle(t, n, env); len(res.Finished) != 0 || len(classify(res).dones) != 0 {
				t.Fatalf("termination handed out inside the burst: %+v", res)
			}
		}
		done := make(chan Result, 1)
		go func() { done <- n.FlushDeferred() }()
		w.reached(t)
		notYet(t, done, "the termination verdict left")
		close(w.gate)
		res := <-done
		if len(res.Finished) != 1 || !res.Finished[0].Initiator || len(classify(res).dones) == 0 {
			t.Fatalf("after the commit: want the verdict and the completion flood, got %+v", res)
		}
		if res.Finished[0].Report.NewTuples != 1 || db.Count("r") != 1 {
			t.Fatalf("report counts %d new tuples, LDB holds %d; want 1 and 1", res.Finished[0].Report.NewTuples, db.Count("r"))
		}
	})

	t.Run("completion notice", func(t *testing.T) {
		n, w, db := newTop(t)
		n.DeferAcks(true)
		handle(t, n, data("s2", "far")) // staged; the burst has not been flushed
		done := make(chan Result, 1)
		go func() {
			done <- n.Handle(msg.Envelope{From: "src", Payload: &msg.SessionDone{SID: "s2", Origin: "far"}})
		}()
		w.reached(t)
		notYet(t, done, "the session finished")
		close(w.gate)
		if res := <-done; len(res.Finished) != 1 || db.Count("r") != 1 {
			t.Fatalf("want the session finished over a committed tuple, got %+v with %d rows", res, db.Count("r"))
		}
		n.FlushDeferred()
		if w.commits != 1 {
			t.Errorf("%d commits, want 1", w.commits)
		}
	})
}
