package core

import (
	"testing"

	"codb/internal/msg"
	"codb/internal/relation"
)

// reportFor finds a node's report for one session.
func reportFor(t *testing.T, n *Node, sid string) msg.UpdateReport {
	t.Helper()
	for _, rep := range n.Reports() {
		if rep.SID == sid {
			return rep
		}
	}
	t.Fatalf("node %s has no report for session %s", n.Self(), sid)
	return msg.UpdateReport{}
}

// updateSID runs a global update with a fixed SID (so reports can be found
// per node) and returns the initiator's report.
func (s *sim) updateSID(origin, sid string) msg.UpdateReport {
	res, err := s.nodes[origin].StartUpdate(sid)
	if err != nil {
		s.t.Fatal(err)
	}
	s.dispatch(origin, res, sid)
	s.run()
	for _, f := range s.finished[origin] {
		if f.SID == sid && f.Initiator {
			return f.Report
		}
	}
	s.t.Fatalf("update %s did not complete at %s", sid, origin)
	return msg.UpdateReport{}
}

func receivedTuples(rep msg.UpdateReport) int {
	n := 0
	for _, c := range rep.TuplesPerRule {
		n += c
	}
	return n
}

// TestIncrementalSecondSessionShipsNothing: with nothing committed between
// sessions, the second global update must keep every binding off the wire.
func TestIncrementalSecondSessionShipsNothing(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2}, []int{3})

	s.updateSID("A", "u1")
	if got := s.nodes["A"].Wrapper().Count("r"); got != 3 {
		t.Fatalf("A.r after first update = %d", got)
	}

	s.updateSID("A", "u2")
	repB := reportFor(t, s.nodes["B"], "u2")
	if repB.ExportsIncremental != 1 || repB.ExportsFull != 0 {
		t.Errorf("B exports in session 2: incr=%d full=%d, want 1/0",
			repB.ExportsIncremental, repB.ExportsFull)
	}
	if repB.SkippedByWatermark != 3 {
		t.Errorf("SkippedByWatermark = %d, want 3", repB.SkippedByWatermark)
	}
	if repB.SentMsgs != 0 {
		t.Errorf("B shipped %d data messages in an unchanged second session", repB.SentMsgs)
	}
	repA := reportFor(t, s.nodes["A"], "u2")
	if got := receivedTuples(repA); got != 0 {
		t.Errorf("A received %d tuples in an unchanged second session", got)
	}
}

// TestIncrementalShipsOnlyDelta: tuples committed between sessions travel;
// everything under the watermark stays home.
func TestIncrementalShipsOnlyDelta(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2}, []int{3})
	s.updateSID("A", "u1")

	s.seed("B", "r", []int{4}, []int{5})
	s.updateSID("A", "u2")
	if got := s.nodes["A"].Wrapper().Count("r"); got != 5 {
		t.Fatalf("A.r after delta update = %d, want 5", got)
	}
	repA := reportFor(t, s.nodes["A"], "u2")
	if got := receivedTuples(repA); got != 2 {
		t.Errorf("A received %d tuples, want exactly the delta (2)", got)
	}
	if repA.IncrementalMsgs == 0 {
		t.Error("A saw no incremental-mode data batches")
	}
	repB := reportFor(t, s.nodes["B"], "u2")
	if repB.ExportsIncremental != 1 {
		t.Errorf("B incremental exports = %d, want 1", repB.ExportsIncremental)
	}
	if repB.SkippedByWatermark != 3 {
		t.Errorf("SkippedByWatermark = %d, want 3 (the pre-watermark tuples)", repB.SkippedByWatermark)
	}
}

// TestFullExportToggleReships: the paper-faithful mode re-evaluates and
// re-ships the whole extent every session.
func TestFullExportToggleReships(t *testing.T) {
	s := newSim(t)
	s.addNodeCfg(Config{Self: "A", FullExport: true}, "r/1")
	s.addNodeCfg(Config{Self: "B", FullExport: true}, "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2}, []int{3})
	s.updateSID("A", "u1")

	s.updateSID("A", "u2")
	repB := reportFor(t, s.nodes["B"], "u2")
	if repB.ExportsFull != 1 || repB.ExportsIncremental != 0 {
		t.Errorf("B exports: full=%d incr=%d, want 1/0", repB.ExportsFull, repB.ExportsIncremental)
	}
	repA := reportFor(t, s.nodes["A"], "u2")
	if got := receivedTuples(repA); got != 3 {
		t.Errorf("A received %d tuples under FullExport, want the full extent (3)", got)
	}
}

// TestHistoryLostFallsBackToFullEval: a delete between sessions poisons the
// changelog; the next export re-evaluates and re-ships the surviving extent
// once, and the one after is incremental again.
func TestHistoryLostFallsBackToFullEval(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2}, []int{3})
	s.updateSID("A", "u1")

	db := s.nodes["B"].Wrapper().(*StoreWrapper).DB()
	if _, err := db.Delete("r", relation.Tuple{relation.Int(2)}); err != nil {
		t.Fatal(err)
	}
	s.seed("B", "r", []int{9})
	s.updateSID("A", "u2")

	repB := reportFor(t, s.nodes["B"], "u2")
	if repB.ExportsFallback != 1 {
		t.Errorf("B fallback exports = %d, want 1 (history lost)", repB.ExportsFallback)
	}
	repA := reportFor(t, s.nodes["A"], "u2")
	if got := receivedTuples(repA); got != 3 {
		t.Errorf("A received %d tuples, want 3 (the surviving extent, the new tuple included)", got)
	}
	// Materialisation is monotone: the delete does not retract at A.
	if got := s.nodes["A"].Wrapper().Count("r"); got != 4 {
		t.Errorf("A.r = %d, want 4", got)
	}
	s.seed("B", "r", []int{10})
	s.updateSID("A", "u3")
	if repB := reportFor(t, s.nodes["B"], "u3"); repB.ExportsIncremental != 1 {
		t.Errorf("B exports after the fallback: incr=%d fallback=%d, want incremental", repB.ExportsIncremental, repB.ExportsFallback)
	}
	if got := receivedTuples(reportFor(t, s.nodes["A"], "u3")); got != 1 {
		t.Errorf("A received %d tuples after the fallback, want 1", got)
	}
}

// TestQuerySessionsDoNotConsumeWatermarks: query sessions sink into
// transient overlays, so they must neither mark bindings as shipped nor
// advance watermarks — a later update still materialises everything.
func TestQuerySessionsDoNotConsumeWatermarks(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2}, []int{3})

	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 3 {
		t.Fatalf("cold query answers = %d, want 3", len(answers))
	}
	if got := s.nodes["A"].Wrapper().Count("r"); got != 0 {
		t.Fatalf("query materialised into the LDB: A.r = %d", got)
	}

	s.updateSID("A", "u1")
	if got := s.nodes["A"].Wrapper().Count("r"); got != 3 {
		t.Errorf("A.r after update = %d, want 3 (query must not have consumed the export state)", got)
	}
}

// TestIncrementalExportStateRoundTrip: the watermarks live in the storage as
// marks, so a fresh node over the same storage resumes incrementally once
// its rule is declared; the same rule ID with another text finds no
// watermark, and declaring it deletes the old definition's mark.
func TestIncrementalExportStateRoundTrip(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	b := s.addNode("B", "r/1", "q/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2})
	s.updateSID("A", "u1")
	wm := b.ExportWatermarks()["r1"]
	if wm == 0 {
		t.Fatal("no watermark after the first session")
	}
	if err := b.Wrapper().LogMarks(); err != nil { // what the next commit would carry
		t.Fatal(err)
	}

	// "Restart" B: a fresh node over the same storage.
	b2, err := NewNode(Config{Self: "B", Wrapper: b.Wrapper()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	if got := b2.ExportWatermarks()["r1"]; got != wm {
		t.Fatalf("restored watermark = %d, want %d", got, wm)
	}
	s.nodes["B"] = b2
	s.updateSID("A", "u2")
	repB := reportFor(t, b2, "u2")
	if repB.ExportsIncremental != 1 || repB.SentMsgs != 0 {
		t.Errorf("restored node: incr=%d sent=%d, want 1/0", repB.ExportsIncremental, repB.SentMsgs)
	}

	// The rule redefined: no watermark, and the old text's mark is gone.
	b3, err := NewNode(Config{Self: "B", Wrapper: b.Wrapper()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.AddRule("r1", `A.r(x) <- B.q(x)`); err != nil {
		t.Fatal(err)
	}
	if _, ok := b3.ExportWatermarks()["r1"]; ok {
		t.Error("a redefined rule inherited the watermark")
	}
	if marks := b.Wrapper().Marks(); len(marks) != 0 {
		t.Errorf("marks %v survive the redefinition", marks)
	}
}

// TestIncrementalAcrossChain: increments propagate transitively — a tuple
// added at the tail of a chain reaches the head in the second session while
// the rest of the extent stays off every wire.
func TestIncrementalAcrossChain(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.seed("C", "r", []int{1}, []int{2}, []int{3})
	s.updateSID("A", "u1")
	if got := s.nodes["A"].Wrapper().Count("r"); got != 3 {
		t.Fatalf("A.r after first update = %d", got)
	}

	s.seed("C", "r", []int{4})
	s.updateSID("A", "u2")
	if got := s.nodes["A"].Wrapper().Count("r"); got != 4 {
		t.Fatalf("A.r after second update = %d, want 4", got)
	}
	total := 0
	for _, name := range []string{"A", "B", "C"} {
		total += receivedTuples(reportFor(t, s.nodes[name], "u2"))
	}
	if total != 2 {
		t.Errorf("network shipped %d tuples in session 2, want 2 (one per hop)", total)
	}
}

// TestMediatorExportsLikeInMemoryPeer: a mediator's wrapper is the
// in-memory engine, so it keeps export watermarks like any in-memory peer —
// its second session exports incrementally, shipping nothing already
// shipped — while the importer still holds everything.
func TestMediatorExportsLikeInMemoryPeer(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	schema := relation.NewSchema()
	schema.MustAdd(relDef("r/1"))
	s.addNodeCfg(Config{Self: "B", Wrapper: NewMediatorWrapper(schema)})
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1}, []int{2})

	s.updateSID("A", "u1")
	s.updateSID("A", "u2")
	repB := reportFor(t, s.nodes["B"], "u2")
	if repB.ExportsFull != 0 || repB.ExportsIncremental != 1 {
		t.Errorf("mediator exports: full=%d incr=%d, want 0/1", repB.ExportsFull, repB.ExportsIncremental)
	}
	if got := receivedTuples(reportFor(t, s.nodes["A"], "u2")); got != 0 {
		t.Errorf("A received %d tuples from the mediator's second export, want 0", got)
	}
	if got := len(s.instanceOf("A")["r"]); got != 2 {
		t.Errorf("A holds %d tuples, want 2", got)
	}
}
