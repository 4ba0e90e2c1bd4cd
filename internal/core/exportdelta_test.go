package core

import (
	"sort"
	"testing"
)

func sameExportState(t *testing.T, when string, got, want map[string]ExportSnapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rebuilt state has rules %v, ExportState %v", when, got, want)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.RuleText != w.RuleText || g.Watermark != w.Watermark || len(g.Shipped) != len(w.Shipped) {
			t.Fatalf("%s: rule %s rebuilt as %+v, ExportState %+v", when, id, g, w)
		}
		gs, ws := append([]string(nil), g.Shipped...), append([]string(nil), w.Shipped...)
		sort.Strings(gs)
		sort.Strings(ws)
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("%s: rule %s fingerprints differ at %d (a key recorded twice or not at all)", when, id, i)
			}
		}
	}
}

// TestDrainExportDeltaRebuildsExportState: the deltas drained after each
// session, folded in order, always rebuild ExportState() — across plain
// increments, a reset toward the importer, a fingerprint-bound overflow, a
// redefined rule and a removed one — each delta carries only what is new,
// and a drain with nothing to report is empty.
func TestDrainExportDeltaRebuildsExportState(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1", "q/1")
	b := s.addNodeCfg(Config{Self: "B", MaxFingerprints: 12}, "r/1", "q/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("q1", `A.q(x) <- B.q(x)`)
	rebuilt := map[string]ExportSnapshot{}
	drain := func(when string) []ExportDelta {
		t.Helper()
		deltas := b.DrainExportDelta()
		for _, d := range deltas { // what a reader of the peer's state log does
			d.Apply(rebuilt)
		}
		sameExportState(t, when, rebuilt, b.ExportState())
		return deltas
	}
	byRule := func(deltas []ExportDelta, id string) *ExportDelta {
		for i := range deltas {
			if deltas[i].RuleID == id {
				return &deltas[i]
			}
		}
		return nil
	}

	s.seed("B", "r", []int{1}, []int{2}, []int{3})
	s.seed("B", "q", []int{1})
	s.updateSID("A", "u1")
	first := drain("first session")
	if d := byRule(first, "r1"); d == nil || !d.Reset || len(d.Shipped) != 3 {
		t.Fatalf("first session delta for r1 = %+v, want a reset with 3 keys", d)
	}

	s.seed("B", "r", []int{4}, []int{5})
	s.updateSID("A", "u2")
	second := drain("increment")
	if d := byRule(second, "r1"); d == nil || d.Reset || len(d.Shipped) != 2 {
		t.Fatalf("increment delta for r1 = %+v, want 2 new keys and no reset", d)
	}
	if d := byRule(second, "q1"); d != nil && len(d.Shipped) != 0 {
		t.Fatalf("untouched rule q1 re-reports keys: %+v", d)
	}
	if again := b.DrainExportDelta(); len(again) != 0 {
		t.Fatalf("a second drain reports %+v, want nothing", again)
	}

	// The importer lost its data: both links toward it start over.
	b.ResetExportStateToward("A")
	gone := drain("reset toward A")
	if d := byRule(gone, "r1"); d == nil || !d.Reset || d.RuleText != "" {
		t.Fatalf("reset delta for r1 = %+v, want a bare reset", d)
	}
	s.updateSID("A", "u3")
	drain("full export after the reset")

	// Past MaxFingerprints (12) the state is dropped mid-session.
	s.seed("B", "r", []int{6}, []int{7}, []int{8}, []int{9}, []int{10}, []int{11}, []int{12}, []int{13}, []int{14})
	s.updateSID("A", "u4")
	if _, kept := b.ExportState()["r1"]; kept {
		t.Fatal("the fingerprint bound did not drop r1's state")
	}
	drain("fingerprint overflow")
	s.updateSID("A", "u5")
	drain("session after the overflow")

	// A redefined rule voids its state; so does removing one.
	if err := b.AddRule("q1", `A.q(x) <- B.q(x), x > 0`); err != nil {
		t.Fatal(err)
	}
	if err := s.nodes["A"].AddRule("q1", `A.q(x) <- B.q(x), x > 0`); err != nil {
		t.Fatal(err)
	}
	drain("redefined rule")
	s.updateSID("A", "u6")
	drain("session over the redefined rule")
	b.RemoveRule("q1")
	drain("removed rule")
	if _, kept := rebuilt["q1"]; kept {
		t.Fatal("a removed rule survives in the rebuilt state")
	}
}
