package core

import (
	"fmt"
	"testing"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

func mustQuery(t *testing.T, src string) *cq.Query {
	t.Helper()
	q, err := cq.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func intRow(vs ...int) relation.Tuple {
	t := make(relation.Tuple, len(vs))
	for i, v := range vs {
		t[i] = relation.Int(v)
	}
	return t
}

func TestUpdateChainMaterialisesEverything(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.seed("C", "r", []int{1}, []int{2})
	s.seed("B", "r", []int{3})
	s.seed("A", "r", []int{4})

	rep := s.update("A")

	a := s.instanceOf("A")
	for _, v := range []int{1, 2, 3, 4} {
		if !a.Has("r", intRow(v)) {
			t.Errorf("A missing r(%d)", v)
		}
	}
	b := s.instanceOf("B")
	for _, v := range []int{1, 2, 3} {
		if !b.Has("r", intRow(v)) {
			t.Errorf("B missing r(%d)", v)
		}
	}
	if b.Has("r", intRow(4)) {
		t.Error("B has r(4): data flowed against the rule direction")
	}
	if rep.SID == "" || rep.Origin != "A" {
		t.Errorf("report = %+v", rep)
	}
}

func TestUpdateInitiatorWithNoRulesFinishesImmediately(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	rep := s.update("A")
	if rep.SentMsgs != 0 || len(rep.Queried) != 0 {
		t.Errorf("lonely update report = %+v", rep)
	}
}

func TestUpdateCopyCycleConverges(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- A.r(x)`)
	s.seed("A", "r", []int{1})
	s.seed("B", "r", []int{2})

	s.update("A")

	for _, n := range []string{"A", "B"} {
		in := s.instanceOf(n)
		if !in.Has("r", intRow(1)) || !in.Has("r", intRow(2)) {
			t.Errorf("%s = %v", n, in.Tuples("r"))
		}
	}
}

func TestUpdateMatchesOracleChainJoinExistential(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "p/2")
	s.addNode("B", "e/2", "lab/2")
	s.addNode("C", "e/2")
	// A imports joined pairs from B with an existential tag; B imports
	// edges from C.
	s.rule("r1", `A.p(x, z) <- B.e(x, y), B.lab(y, z)`)
	s.rule("r2", `B.e(x, y) <- C.e(x, y)`)
	s.seed("C", "e", []int{1, 2}, []int{2, 3})
	s.seed("B", "lab", []int{2, 20}, []int{3, 30})

	s.update("A")

	// Oracle.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.p(x, z) <- B.e(x, y), B.lab(y, z)`),
		cq.MustParseRule("r2", `B.e(x, y) <- C.e(x, y)`),
	}
	start := map[string]relation.Instance{
		"C": relation.NewInstance(), "B": relation.NewInstance(), "A": relation.NewInstance(),
	}
	start["C"].Insert("e", intRow(1, 2))
	start["C"].Insert("e", intRow(2, 3))
	start["B"].Insert("lab", intRow(2, 20))
	start["B"].Insert("lab", intRow(3, 30))
	oracle, _, err := chase.Fixpoint(rules, start, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"A", "B"} {
		got := s.instanceOf(node)
		want := oracle[node]
		if !relation.EqualUpToNulls(got, want) {
			t.Errorf("node %s:\n got %v\nwant %v", node, got, want)
		}
	}
	// Deterministic nulls: not just isomorphic, identical.
	gotA := s.instanceOf("A").Tuples("p")
	wantA := oracle["A"].Tuples("p")
	for i := range gotA {
		if !gotA[i].Equal(wantA[i]) {
			t.Errorf("A.p[%d]: %v vs %v (exact label match expected)", i, gotA[i], wantA[i])
		}
	}
}

// TestUpdateExistentialCycleTerminates: a cyclic existential rule set, whose
// first-order chase diverges, reaches the oracle's fixpoint with no bound,
// because no rule ships the null it would need to go round again.
func TestUpdateExistentialCycleTerminates(t *testing.T) {
	cases := []struct {
		name  string
		nodes map[string]string // node → its one relation
		rules []string
	}{
		{
			name:  "2-node cycle",
			nodes: map[string]string{"A": "r/2", "B": "s/1"},
			rules: []string{`A.r(x, z) <- B.s(x)`, `B.s(z) <- A.r(x, z)`},
		},
		{
			name:  "3-node ring",
			nodes: map[string]string{"A": "r/2", "B": "s/1", "C": "t/1"},
			rules: []string{`A.r(x, z) <- C.t(x)`, `B.s(z) <- A.r(x, z)`, `C.t(x) <- B.s(x)`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSim(t)
			start := make(map[string]relation.Instance)
			for name, rel := range tc.nodes {
				s.addNode(name, rel)
				start[name] = relation.NewInstance()
			}
			var rules []*cq.Rule
			for i, text := range tc.rules {
				id := fmt.Sprintf("r%d", i+1)
				s.rule(id, text)
				rules = append(rules, cq.MustParseRule(id, text))
			}
			s.seed("B", "s", []int{1})
			start["B"].Insert("s", intRow(1))

			s.update("A")

			oracle, _, err := chase.Fixpoint(rules, start, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := oracle["A"].Tuples("r"); len(got) != 1 || !got[0][1].IsNull() {
				t.Errorf("oracle A.r = %v, want one row with a null", got)
			}
			for name := range tc.nodes {
				if got := s.instanceOf(name); !instancesIdentical(got, oracle[name]) {
					t.Errorf("node %s:\n got %v\nwant %v", name, got, oracle[name])
				}
			}
		})
	}
}

func TestUpdateRuleAdoptionWithoutBroadcast(t *testing.T) {
	// Only the importer declares the rule; the exporter learns it from the
	// update request (paper §2: requests carry rule definitions).
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.ruleOn("A", "r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{7})

	s.update("A")

	if !s.instanceOf("A").Has("r", intRow(7)) {
		t.Error("A did not receive data over the request-carried rule")
	}
	if len(s.nodes["B"].Incoming()) != 1 {
		t.Error("B did not adopt the rule")
	}
}

func TestUpdateDiamondDedupSavesTraffic(t *testing.T) {
	// Diamond: A imports from B and C, both import from D. D's data reaches
	// A over both paths (the sink dedups), while each link's sent cache keeps
	// a binding from crossing that link twice in the session: every link
	// carries D's three tuples exactly once.
	s := newSim(t)
	for _, name := range []string{"A", "B", "C", "D"} {
		s.addNode(name, "r/1")
	}
	s.rule("rAB", `A.r(x) <- B.r(x)`)
	s.rule("rAC", `A.r(x) <- C.r(x)`)
	s.rule("rBD", `B.r(x) <- D.r(x)`)
	s.rule("rCD", `C.r(x) <- D.r(x)`)
	s.seed("D", "r", []int{1}, []int{2}, []int{3})
	s.updateSID("A", "u1")
	if got := len(s.instanceOf("A")["r"]); got != 3 {
		t.Errorf("A holds %d tuples, want 3", got)
	}
	for importer, links := range map[string][]string{"A": {"rAB", "rAC"}, "B": {"rBD"}, "C": {"rCD"}} {
		rep := reportFor(t, s.nodes[importer], "u1")
		for _, id := range links {
			if got := rep.TuplesPerRule[id]; got != 3 {
				t.Errorf("link %s carried %d bindings to %s, want 3", id, got, importer)
			}
		}
	}
}

func TestUpdateMediatorNode(t *testing.T) {
	// B has no LDB: it mediates between A and C through its wrapper.
	s := newSim(t)
	s.addNode("A", "r/1")
	schema := relation.NewSchema()
	schema.MustAdd(relDef("r/1"))
	s.addNodeCfg(Config{Self: "B", Wrapper: NewMediatorWrapper(schema)})
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.seed("C", "r", []int{42})

	s.update("A")

	if !s.instanceOf("A").Has("r", intRow(42)) {
		t.Error("data did not flow through the mediator")
	}
}

func TestUpdateStatsChainPathLength(t *testing.T) {
	s := newSim(t)
	names := []string{"A", "B", "C", "D", "E"}
	for _, n := range names {
		s.addNode(n, "r/1")
	}
	for i := 0; i < len(names)-1; i++ {
		s.rule("r"+names[i], names[i]+`.r(x) <- `+names[i+1]+`.r(x)`)
	}
	s.seed("E", "r", []int{1})

	s.update("A")

	// E's tuple travels E->D->C->B->A: the path at A has 4 hops.
	maxPath := 0
	for _, n := range names {
		for _, rep := range s.nodes[n].Reports() {
			if rep.LongestPath > maxPath {
				maxPath = rep.LongestPath
			}
		}
	}
	if maxPath != len(names)-1 {
		t.Errorf("longest propagation path = %d, want %d", maxPath, len(names)-1)
	}
}

func TestUpdateReportQueriedAndSentTo(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1})

	rep := s.update("A")
	if len(rep.Queried) != 1 || rep.Queried[0] != "B" {
		t.Errorf("Queried = %v", rep.Queried)
	}
	var bRep msg.UpdateReport
	for _, r := range s.nodes["B"].Reports() {
		bRep = r
	}
	if len(bRep.SentTo) != 1 || bRep.SentTo[0] != "A" {
		t.Errorf("B SentTo = %v", bRep.SentTo)
	}
	if bRep.SentMsgs == 0 || bRep.SentBytes == 0 {
		t.Errorf("B sent stats = %+v", bRep)
	}
	aRep := s.nodes["A"].Reports()[0]
	if aRep.MsgsPerRule["r1"] == 0 || aRep.TuplesPerRule["r1"] != 1 {
		t.Errorf("A per-rule stats = %+v", aRep)
	}
}

func TestMultipleSequentialUpdates(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1})
	s.update("A")
	s.seed("B", "r", []int{2})
	s.update("A")
	a := s.instanceOf("A")
	if !a.Has("r", intRow(1)) || !a.Has("r", intRow(2)) {
		t.Errorf("A = %v", a.Tuples("r"))
	}
	if got := len(s.nodes["A"].Reports()); got != 2 {
		t.Errorf("A has %d reports, want 2", got)
	}
}

func TestRuleManagement(t *testing.T) {
	db := storage.MustOpenMem()
	db.DefineRelation(relDef("r/1"))
	n, err := NewNode(Config{Self: "A", Wrapper: NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Errorf("idempotent re-add rejected: %v", err)
	}
	if err := n.AddRule("bad", `C.r(x) <- B.r(x)`); err == nil {
		t.Error("foreign rule accepted")
	}
	if err := n.AddRule("self", `A.r(x) <- A.r(x)`); err == nil {
		t.Error("self-loop rule accepted")
	}
	if len(n.Outgoing()) != 1 || len(n.Incoming()) != 0 {
		t.Error("link classification wrong")
	}
	if got := n.Acquaintances(); len(got) != 1 || got[0] != "B" {
		t.Errorf("Acquaintances = %v", got)
	}
	if n.RuleText("r1") == "" || n.RuleText("ghost") != "" {
		t.Error("RuleText wrong")
	}
	n.RemoveRule("r1")
	if len(n.Rules()) != 0 {
		t.Error("RemoveRule did not remove")
	}
	if err := n.SetRules([]msg.RuleDef{
		{ID: "a", Text: `A.r(x) <- B.r(x)`},
		{ID: "b", Text: `C.r(x) <- D.r(x)`}, // irrelevant: ignored
	}); err != nil {
		t.Fatal(err)
	}
	if len(n.Rules()) != 1 {
		t.Errorf("SetRules kept %d rules, want 1", len(n.Rules()))
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewNode(Config{Self: "A"}); err == nil {
		t.Error("missing wrapper accepted")
	}
}
