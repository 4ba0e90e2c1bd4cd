package chase

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codb/internal/cq"
	"codb/internal/relation"
)

func intT(vs ...int) relation.Tuple {
	t := make(relation.Tuple, len(vs))
	for i, v := range vs {
		t[i] = relation.Int(v)
	}
	return t
}

func TestFixpointChain(t *testing.T) {
	// A <- B <- C copy chain: everything flows to A.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.r(x) <- B.r(x)`),
		cq.MustParseRule("r2", `B.r(x) <- C.r(x)`),
	}
	start := map[string]relation.Instance{
		"C": {}, "B": {}, "A": {},
	}
	start["C"] = relation.NewInstance()
	start["C"].Insert("r", intT(1))
	start["C"].Insert("r", intT(2))
	start["B"] = relation.NewInstance()
	start["B"].Insert("r", intT(3))
	start["A"] = relation.NewInstance()

	out, stats, err := Fixpoint(rules, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out["A"]["r"]); got != 3 {
		t.Errorf("A.r has %d tuples, want 3", got)
	}
	if got := len(out["B"]["r"]); got != 3 {
		t.Errorf("B.r has %d tuples, want 3", got)
	}
	if stats.FactsAdded != 5 {
		t.Errorf("FactsAdded = %d, want 5", stats.FactsAdded)
	}
	// Input not modified.
	if start["A"].Size() != 0 {
		t.Error("Fixpoint modified its input")
	}
}

func TestFixpointCycleTerminates(t *testing.T) {
	// Copy cycle A <-> B: union both ways, then stop.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.r(x) <- B.r(x)`),
		cq.MustParseRule("r2", `B.r(x) <- A.r(x)`),
	}
	start := map[string]relation.Instance{"A": relation.NewInstance(), "B": relation.NewInstance()}
	start["A"].Insert("r", intT(1))
	start["B"].Insert("r", intT(2))
	out, _, err := Fixpoint(rules, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"A", "B"} {
		if got := len(out[n]["r"]); got != 2 {
			t.Errorf("%s.r has %d tuples, want 2", n, got)
		}
	}
}

func TestFixpointExistentialCycleTerminates(t *testing.T) {
	// A first-order chase of A.r(x,z) <- B.s(x); B.s(z) <- A.r(x,z)
	// diverges. Under the certain-answer reading r2 never ships the null
	// z, so the fixpoint is reached with no bound.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.r(x, z) <- B.s(x)`),
		cq.MustParseRule("r2", `B.s(z) <- A.r(x, z)`),
	}
	start := map[string]relation.Instance{"B": relation.NewInstance()}
	start["B"].Insert("s", intT(1))
	out, _, err := Fixpoint(rules, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out["B"]["s"]); got != 1 {
		t.Errorf("B.s has %d tuples, want 1", got)
	}
	if got := len(out["A"]["r"]); got != 1 {
		t.Errorf("A.r has %d tuples, want 1", got)
	}
}

func TestFixpointExistentialSatisfiedByMemo(t *testing.T) {
	// Terminating existential cycle: the same frontier binding re-fires but
	// the memo returns the same null, so the instance stabilises.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.r(x, z) <- B.s(x)`),
		cq.MustParseRule("r2", `B.s(x) <- A.r(x, y)`),
	}
	start := map[string]relation.Instance{"B": relation.NewInstance()}
	start["B"].Insert("s", intT(1))
	out, _, err := Fixpoint(rules, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// s(1) -> r(1, z1) -> s(1) (already there): stable.
	if got := len(out["B"]["s"]); got != 1 {
		t.Errorf("B.s has %d tuples, want 1", got)
	}
	if got := len(out["A"]["r"]); got != 1 {
		t.Errorf("A.r has %d tuples, want 1", got)
	}
}

func TestFixpointJoinRule(t *testing.T) {
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.pair(x, y) <- B.e(x, z), B.e(z, y)`),
	}
	start := map[string]relation.Instance{"B": relation.NewInstance()}
	start["B"].Insert("e", intT(1, 2))
	start["B"].Insert("e", intT(2, 3))
	out, _, err := Fixpoint(rules, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out["A"].Has("pair", intT(1, 3)) || out["A"].Size() != 1 {
		t.Errorf("A = %v", out["A"])
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rules, start := randomNetwork(rnd)
		naive, _, err1 := Fixpoint(rules, start, Options{})
		semi, _, err2 := FixpointSemiNaive(rules, start, Options{})
		if err1 != nil || err2 != nil {
			t.Logf("errors: %v %v", err1, err2)
			return false
		}
		if len(naive) != len(semi) {
			return false
		}
		for node, in := range naive {
			// Deterministic nulls: plain equality must hold.
			if !relation.EqualUpToNulls(in, semi[node]) {
				t.Logf("node %s: naive=%v semi=%v", node, in, semi[node])
				return false
			}
			if canon := in.Size(); canon != semi[node].Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomNetwork builds 3-5 nodes with unary/binary relations, random copy /
// projection / join / existential rules between random node pairs, and
// random seed data.
func randomNetwork(rnd *rand.Rand) ([]*cq.Rule, map[string]relation.Instance) {
	nNodes := rnd.Intn(3) + 3
	nodes := make([]string, nNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("N%d", i)
	}
	templates := []string{
		`%s.u(x) <- %s.u(x)`,
		`%s.u(x) <- %s.b(x, y)`,
		`%s.b(x, y) <- %s.b(x, y)`,
		`%s.b(x, z) <- %s.b(x, y), %s.b(y, z)`,
		`%s.b(x, z) <- %s.u(x)`, // existential z
		`%s.u(x) <- %s.b(x, y), y > 1`,
	}
	nRules := rnd.Intn(5) + 2
	var rules []*cq.Rule
	for i := 0; i < nRules; i++ {
		tpl := templates[rnd.Intn(len(templates))]
		tgt := nodes[rnd.Intn(nNodes)]
		src := nodes[rnd.Intn(nNodes)]
		if tgt == src {
			continue // coordination rules connect distinct peers
		}
		var text string
		if tpl == templates[3] {
			text = fmt.Sprintf(tpl, tgt, src, src)
		} else {
			text = fmt.Sprintf(tpl, tgt, src)
		}
		rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d", i), text))
	}
	start := make(map[string]relation.Instance, nNodes)
	for _, n := range nodes {
		in := relation.NewInstance()
		for i, k := 0, rnd.Intn(5); i < k; i++ {
			in.Insert("u", intT(rnd.Intn(4)))
		}
		for i, k := 0, rnd.Intn(5); i < k; i++ {
			in.Insert("b", intT(rnd.Intn(4), rnd.Intn(4)))
		}
		start[n] = in
	}
	return rules, start
}

func TestFixpointStrictEqualityNaiveVsSemiNaive(t *testing.T) {
	// Deterministic nulls mean the two strategies agree not just up to
	// renaming but on the exact labels.
	rules := []*cq.Rule{
		cq.MustParseRule("r1", `A.r(x, z) <- B.s(x)`),
		cq.MustParseRule("r2", `C.t(z) <- A.r(x, z)`),
	}
	start := map[string]relation.Instance{"B": relation.NewInstance()}
	start["B"].Insert("s", intT(1))
	start["B"].Insert("s", intT(2))
	naive, _, _ := Fixpoint(rules, start, Options{})
	semi, _, _ := FixpointSemiNaive(rules, start, Options{})
	for _, node := range []string{"A", "C"} {
		na, sa := naive[node].Tuples("r"), semi[node].Tuples("r")
		if node == "C" {
			na, sa = naive[node].Tuples("t"), semi[node].Tuples("t")
		}
		if len(na) != len(sa) {
			t.Fatalf("node %s: %d vs %d", node, len(na), len(sa))
		}
		for i := range na {
			if !na[i].Equal(sa[i]) {
				t.Errorf("node %s tuple %d: %v vs %v (labels must match exactly)", node, i, na[i], sa[i])
			}
		}
	}
}
