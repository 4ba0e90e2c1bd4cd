package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/relation"
)

// TestQuickUpdateMatchesOracle is the central correctness property: for
// random topologies (possibly cyclic, with existential rules), random seed
// data, and a random message delivery order, a global update leaves every
// node in the initiator's weakly-connected component with exactly the
// instance the centralised chase fixpoint assigns it. Thanks to the
// deterministic null labels the comparison is plain set equality, not just
// isomorphism.
func TestQuickUpdateMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		names, rules, seeds := randomTopology(rnd)

		// --- Distributed run.
		s := newSim(t)
		s.rnd = rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, name := range names {
			s.addNode(name, "u/1", "b/2")
		}
		for _, r := range rules {
			s.rule(r.ID, r.String())
		}
		for node, in := range seeds {
			for rel, m := range in {
				for _, tup := range m {
					if _, err := s.nodes[node].Wrapper().InsertMany(rel, []relation.Tuple{tup}); err != nil {
						t.Logf("seed: %v", err)
						return false
					}
				}
			}
		}
		origin := names[0]
		s.update(origin)

		// --- Oracle, restricted to the initiator's weakly-connected
		// component (the flood cannot reach beyond it).
		comp := component(origin, rules)
		var compRules []*cq.Rule
		for _, r := range rules {
			if comp[r.Source] && comp[r.Target] {
				compRules = append(compRules, r)
			}
		}
		start := make(map[string]relation.Instance)
		for node := range comp {
			if in, ok := seeds[node]; ok {
				start[node] = in.Clone()
			} else {
				start[node] = relation.NewInstance()
			}
		}
		oracle, _, err := chase.Fixpoint(compRules, start, chase.Options{})
		if err != nil {
			t.Logf("oracle: %v", err)
			return false
		}

		for node := range comp {
			got := s.instanceOf(node)
			want := oracle[node]
			if !instancesIdentical(got, want) {
				t.Logf("seed %d node %s:\n got  %v\n want %v\n rules:", seed, node, dump(got), dump(want))
				for _, r := range compRules {
					t.Logf("  %s: %s", r.ID, r)
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// instancesIdentical demands exact equality (same tuples, same null
// labels).
func instancesIdentical(a, b relation.Instance) bool {
	for rel, m := range a {
		if len(m) != len(b[rel]) {
			return false
		}
		for k := range m {
			if _, ok := b[rel][k]; !ok {
				return false
			}
		}
	}
	for rel, m := range b {
		if len(m) != len(a[rel]) {
			return false
		}
	}
	return true
}

func dump(in relation.Instance) string {
	out := ""
	for _, rel := range []string{"u", "b"} {
		for _, t := range in.Tuples(rel) {
			out += rel + t.String() + " "
		}
	}
	return out
}

// component computes the weakly-connected component of origin in the rule
// graph.
func component(origin string, rules []*cq.Rule) map[string]bool {
	adj := make(map[string][]string)
	for _, r := range rules {
		adj[r.Source] = append(adj[r.Source], r.Target)
		adj[r.Target] = append(adj[r.Target], r.Source)
	}
	comp := map[string]bool{origin: true}
	stack := []string{origin}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !comp[m] {
				comp[m] = true
				stack = append(stack, m)
			}
		}
	}
	return comp
}

// randomTopology builds 3-6 nodes with relations u/1 and b/2, random rules
// drawn from copy/projection/join/existential templates (duplicates and
// cycles allowed; one template puts a minted null in a frontier), and
// random seed data.
func randomTopology(rnd *rand.Rand) ([]string, []*cq.Rule, map[string]relation.Instance) {
	nNodes := rnd.Intn(4) + 3
	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("N%d", i)
	}
	templates := []func(tgt, src string) string{
		func(t, s string) string { return fmt.Sprintf(`%s.u(x) <- %s.u(x)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.u(x) <- %s.b(x, y)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, y) <- %s.b(x, y)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, z) <- %s.b(x, y), %s.b(y, z)`, t, s, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, z) <- %s.u(x)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.u(x) <- %s.b(x, y), y > 1`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.b(x, x) <- %s.u(x)`, t, s) },
		func(t, s string) string { return fmt.Sprintf(`%s.u(y) <- %s.b(x, y)`, t, s) },
	}
	nRules := rnd.Intn(6) + 2
	var rules []*cq.Rule
	for i := 0; i < nRules; i++ {
		tgt := names[rnd.Intn(nNodes)]
		src := names[rnd.Intn(nNodes)]
		if tgt == src {
			continue
		}
		text := templates[rnd.Intn(len(templates))](tgt, src)
		rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d", i), text))
	}
	seeds := make(map[string]relation.Instance)
	for _, n := range names {
		in := relation.NewInstance()
		for i, k := 0, rnd.Intn(4); i < k; i++ {
			in.Insert("u", relation.Tuple{relation.Int(rnd.Intn(4))})
		}
		for i, k := 0, rnd.Intn(4); i < k; i++ {
			in.Insert("b", relation.Tuple{relation.Int(rnd.Intn(4)), relation.Int(rnd.Intn(4))})
		}
		seeds[n] = in
	}
	return names, rules, seeds
}

// TestQuickQueryMatchesOracleOnTrees: on tree-shaped (acyclic) topologies a
// distributed query at the root returns exactly the answers the query has
// over the oracle fixpoint at the root.
func TestQuickQueryMatchesOracleOnTrees(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nNodes := rnd.Intn(4) + 2
		names := make([]string, nNodes)
		for i := range names {
			names[i] = fmt.Sprintf("N%d", i)
		}
		// Tree edges: node i imports from a random parent j < i... rules
		// point root-ward: N_i's data flows to its parent.
		var rules []*cq.Rule
		for i := 1; i < nNodes; i++ {
			parent := names[rnd.Intn(i)]
			text := fmt.Sprintf(`%s.u(x) <- %s.u(x)`, parent, names[i])
			rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d", i), text))
		}
		seeds := make(map[string]relation.Instance)
		for _, n := range names {
			in := relation.NewInstance()
			for i, k := 0, rnd.Intn(4); i < k; i++ {
				in.Insert("u", relation.Tuple{relation.Int(rnd.Intn(5))})
			}
			seeds[n] = in
		}

		s := newSim(t)
		s.rnd = rand.New(rand.NewSource(seed ^ 0xabc))
		for _, n := range names {
			s.addNode(n, "u/1")
		}
		for _, r := range rules {
			s.rule(r.ID, r.String())
		}
		for node, in := range seeds {
			for _, tup := range in.Tuples("u") {
				s.nodes[node].Wrapper().InsertMany("u", []relation.Tuple{tup})
			}
		}
		answers := s.query(names[0], `ans(x) :- u(x)`, AllAnswers)

		oracle, _, err := chase.Fixpoint(rules, seeds, chase.Options{})
		if err != nil {
			return false
		}
		want := oracle[names[0]].Tuples("u")
		if len(answers) != len(want) {
			t.Logf("seed %d: %d answers, want %d", seed, len(answers), len(want))
			return false
		}
		keys := make(map[string]bool)
		for _, a := range answers {
			keys[a.Key()] = true
		}
		for _, w := range want {
			if !keys[w.Key()] {
				t.Logf("seed %d: missing %v", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
