package topo

import (
	"strings"
	"testing"

	"codb/internal/cq"
)

func countEdges(t *testing.T, shape Shape, n int, opts Options) int {
	t.Helper()
	cfg, err := Build(shape, n, opts)
	if err != nil {
		t.Fatalf("%s/%d: %v", shape, n, err)
	}
	return len(cfg.Rules)
}

func TestShapeEdgeCounts(t *testing.T) {
	cases := []struct {
		shape Shape
		n     int
		want  int
	}{
		{Chain, 5, 4},
		{Chain, 1, 0},
		{Ring, 5, 5},
		{Star, 5, 4},
		{Tree, 7, 6},
		{Complete, 4, 12},
		{Grid, 4, 4},  // 2x2: two right + two down
		{Grid, 9, 12}, // 3x3
	}
	for _, c := range cases {
		if got := countEdges(t, c.shape, c.n, Options{}); got != c.want {
			t.Errorf("%s/%d: %d edges, want %d", c.shape, c.n, got, c.want)
		}
	}
}

func TestRandomDeterministicAndConnected(t *testing.T) {
	a, err := Build(Random, 10, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Build(Random, 10, Options{Seed: 42})
	if a.String() != b.String() {
		t.Error("same seed produced different random topologies")
	}
	c, _ := Build(Random, 10, Options{Seed: 43})
	if a.String() == c.String() {
		t.Error("different seeds produced identical topologies")
	}
	// Weak connectivity: every node reachable from N0 in the undirected
	// rule graph.
	adj := make(map[string][]string)
	for _, r := range a.Rules {
		rule := cq.MustParseRule(r.ID, r.Text)
		adj[rule.Source] = append(adj[rule.Source], rule.Target)
		adj[rule.Target] = append(adj[rule.Target], rule.Source)
	}
	seen := map[string]bool{"N0": true}
	stack := []string{"N0"}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	if len(seen) != 10 {
		t.Errorf("random topology not weakly connected: %d of 10 reachable", len(seen))
	}
}

func TestExistentialVariant(t *testing.T) {
	cfg, err := Build(Chain, 3, Options{Rule: ExistentialRule})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cfg.Rules {
		rule := cq.MustParseRule(r.ID, r.Text)
		if len(rule.Existentials()) != 1 {
			t.Errorf("rule %s has no existential: %s", r.ID, r.Text)
		}
	}
}

func TestConfigsValidateAndParse(t *testing.T) {
	for _, shape := range Shapes() {
		n := 6
		cfg, err := Build(shape, n, Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", shape, err)
			continue
		}
		if len(cfg.Nodes) != n {
			t.Errorf("%s: %d nodes", shape, len(cfg.Nodes))
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: validate: %v", shape, err)
		}
		if !strings.Contains(cfg.String(), "node N0") {
			t.Errorf("%s: missing node decl", shape)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Chain, 0, Options{}); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := Build(Ring, 1, Options{}); err == nil {
		t.Error("1-node ring accepted")
	}
	if _, err := Build(Shape("möbius"), 3, Options{}); err == nil {
		t.Error("unknown shape accepted")
	}
}
