package codb

import (
	"testing"
	"time"
)

// sessionReport finds a peer's report for the given session ID, waiting out
// the completion flood (participants finalise shortly after the initiator).
func sessionReport(t *testing.T, p *Peer, sid string) Report {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rep := range p.Reports() {
			if rep.SID == sid {
				return rep
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer %s has no report for session %s", p.Name(), sid)
		}
		time.Sleep(time.Millisecond)
	}
}

func buildDurablePair(t *testing.T, dirA, dirB string) *Network {
	return buildDurablePairOpts(t, dirA, dirB, NetworkOptions{})
}

func buildDurablePairOpts(t *testing.T, dirA, dirB string, opts NetworkOptions) *Network {
	t.Helper()
	nw := NewNetworkWithOptions(opts)
	if _, err := nw.AddDurablePeer("a", dirA, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddDurablePeer("b", dirB, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	return nw
}

// TestRestartRestoresExportWatermarks: a peer reopened from disk resumes
// incremental export — the second process life ships only the tuples
// committed after the first life's update.
func TestRestartRestoresExportWatermarks(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	nw := buildDurablePair(t, dirA, dirB)
	for i := 0; i < 40; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	if got := nw.Peer("a").Count("r"); got != 40 {
		t.Fatalf("a.r after first update = %d", got)
	}
	if wm := nw.Peer("b").ExportWatermarks()["r1"]; wm == 0 {
		t.Fatal("exporter has no watermark after a materialising session")
	}
	nw.Close() // checkpoints both stores

	// Second process life over the same directories.
	nw2 := buildDurablePair(t, dirA, dirB)
	defer nw2.Close()
	if wm := nw2.Peer("b").ExportWatermarks()["r1"]; wm == 0 {
		t.Fatal("reopened exporter did not restore its watermark")
	}
	for i := 100; i < 105; i++ {
		if err := nw2.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := nw2.Update(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := nw2.Peer("a").Count("r"); got != 45 {
		t.Fatalf("a.r after restart update = %d, want 45 (no missing tuples)", got)
	}
	repB := sessionReport(t, nw2.Peer("b"), rep.SID)
	if repB.ExportsIncremental != 1 {
		t.Errorf("restarted exporter ran %d incremental exports, want 1 (full=%d fallback=%d)",
			repB.ExportsIncremental, repB.ExportsFull, repB.ExportsFallback)
	}
	repA := sessionReport(t, nw2.Peer("a"), rep.SID)
	got := 0
	for _, n := range repA.TuplesPerRule {
		got += n
	}
	if got != 5 {
		t.Errorf("restart session shipped %d tuples, want exactly the 5 new ones", got)
	}
}

// TestRestartServesSpilledHistory: the exporter's watermark ends up below
// both the in-memory changelog ring (tiny ChangelogLimit, evicted by
// later traffic) and the checkpoint LSN (commits after the last update,
// checkpointed by Close). Before changelog spill this degraded to a
// history-lost full export; now the delta must be served from retained
// WAL segments across the restart, shipping exactly the new tuples.
func TestRestartServesSpilledHistory(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	opts := NetworkOptions{Storage: StorageGroup{ChangelogLimit: 4, SegmentBytes: 256}}

	nw := buildDurablePairOpts(t, dirA, dirB, opts)
	for i := 0; i < 30; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	// Post-update commits push the watermark out of the 4-entry ring and
	// below the Close checkpoint.
	for i := 100; i < 120; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	nw.Close() // checkpoints both stores; segments are retained, not reset

	nw2 := buildDurablePairOpts(t, dirA, dirB, opts)
	defer nw2.Close()
	if wm := nw2.Peer("b").ExportWatermarks()["r1"]; wm == 0 {
		t.Fatal("reopened exporter did not restore its watermark")
	}
	rep, err := nw2.Update(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := nw2.Peer("a").Count("r"); got != 50 {
		t.Fatalf("a.r after restart update = %d, want 50", got)
	}
	repB := sessionReport(t, nw2.Peer("b"), rep.SID)
	if repB.ExportsIncremental != 1 || repB.ExportsFallback != 0 || repB.ExportsFull != 0 {
		t.Errorf("restarted exporter: incr=%d fallback=%d full=%d, want a spill-served incremental export",
			repB.ExportsIncremental, repB.ExportsFallback, repB.ExportsFull)
	}
	repA := sessionReport(t, nw2.Peer("a"), rep.SID)
	shipped := 0
	for _, n := range repA.TuplesPerRule {
		shipped += n
	}
	if shipped != 20 {
		t.Errorf("restart session shipped %d tuples, want exactly the 20 new ones", shipped)
	}
	// The delta really came off disk.
	if st, ok := nw2.PeerStorageStats("b"); !ok || st.SpillHits == 0 {
		t.Errorf("exporter served no Changes from spilled segments: %+v ok=%v", st, ok)
	}
}

// TestRestartRedefinedRuleGetsFullExport: a rule redefined while its
// exporter was down inherits no watermark — the watermark is keyed by the
// rule text — so the reopened peer exports it in full and the importer ends
// up complete.
func TestRestartRedefinedRuleGetsFullExport(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	nw := buildDurablePair(t, dirA, dirB)
	for i := 0; i < 20; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}
	nw.Close()

	nw2 := NewNetworkWithOptions(NetworkOptions{})
	defer nw2.Close()
	if _, err := nw2.AddDurablePeer("a", dirA, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw2.AddDurablePeer("b", dirB, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	// The narrower rule keeps from b what a already holds, plus 999.
	nw2.MustAddRule("r1", `a.r(x) <- b.r(x), x > 9`)
	if wm := nw2.Peer("b").ExportWatermarks(); len(wm) != 0 {
		t.Fatalf("the redefined rule inherited watermarks %v", wm)
	}
	if err := nw2.Insert("b", "r", Row(Int(999))); err != nil {
		t.Fatal(err)
	}
	rep, err := nw2.Update(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := nw2.Peer("a").Count("r"); got != 21 {
		t.Fatalf("a.r = %d, want 21 (a restart must not lose tuples)", got)
	}
	repB := sessionReport(t, nw2.Peer("b"), rep.SID)
	if repB.ExportsFull != 1 {
		t.Errorf("redefined rule: full=%d incr=%d fallback=%d, want a full export",
			repB.ExportsFull, repB.ExportsIncremental, repB.ExportsFallback)
	}
	shipped := 0
	for _, n := range sessionReport(t, nw2.Peer("a"), rep.SID).TuplesPerRule {
		shipped += n
	}
	if shipped != 11 {
		t.Errorf("full export shipped %d tuples, want the 11 the rule selects", shipped)
	}
}

// TestLeaveThenRejoinDurableResumesIncremental: a peer that leaves the
// network and rejoins over its own durable directory must pick up where it
// left off — the rejoin itself does not reset the rejoiner's export state,
// so the next session ships exactly one export per rule: incrementally
// (just the delta) or, at worst, one full export. Never both.
func TestLeaveThenRejoinDurableResumesIncremental(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	nw := buildDurablePair(t, dirA, dirB)
	defer nw.Close()
	for i := 0; i < 30; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "a"); err != nil {
		t.Fatal(err)
	}

	// b departs; a tombstones it and resets its own state toward b.
	nw.RemovePeer("b")
	// …and rejoins over the same durable directory (a new incarnation of
	// the same data), re-declaring its rule.
	if _, err := nw.AddDurablePeer("b", dirB, "r(x int)"); err != nil {
		t.Fatal(err)
	}
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	for i := 100; i < 105; i++ {
		if err := nw.Insert("b", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := nw.Update(ctxT(t), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Peer("a").Count("r"); got != 35 {
		t.Fatalf("a.r = %d after rejoin update, want 35", got)
	}
	repB := sessionReport(t, nw.Peer("b"), rep.SID)
	exports := repB.ExportsIncremental + repB.ExportsFull + repB.ExportsFallback
	if exports != 1 {
		t.Errorf("rejoined exporter ran %d exports (incr=%d full=%d fallback=%d), want exactly one",
			exports, repB.ExportsIncremental, repB.ExportsFull, repB.ExportsFallback)
	}
	if repB.ExportsIncremental == 1 {
		// Resumed incrementally: only the 5 post-rejoin tuples shipped.
		repA := sessionReport(t, nw.Peer("a"), rep.SID)
		shipped := 0
		for _, n := range repA.TuplesPerRule {
			shipped += n
		}
		if shipped != 5 {
			t.Errorf("rejoin session shipped %d tuples, want exactly the 5 new ones", shipped)
		}
	}
}

// TestRecreatedImporterGetsFullReexport: when a peer leaves and a fresh one
// takes its name, the exporters must not assume anything is already
// materialised there — RemovePeer resets their export state toward the
// departed name, so the next session re-exports in full.
func TestRecreatedImporterGetsFullReexport(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `b.r(x) <- a.r(x)`)
	for i := 0; i < 10; i++ {
		if err := nw.Insert("a", "r", Row(Int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	if got := nw.Peer("b").Count("r"); got != 10 {
		t.Fatalf("b.r = %d before restart", got)
	}

	nw.RemovePeer("b")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `b.r(x) <- a.r(x)`)
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	if got := nw.Peer("b").Count("r"); got != 10 {
		t.Fatalf("recreated b.r = %d, want 10 (exporter state toward b must have been reset)", got)
	}
}
