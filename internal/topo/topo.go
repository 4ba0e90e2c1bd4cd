// Package topo generates the network topologies of the paper's §4 demo
// ("we will measure the performance of various networks arranged in
// different topologies"): chain, ring, star, tree, grid, random and
// complete graphs of peers, rendered as coordination-rules configurations.
//
// Every generated node shares the relation data(k int, v int); each edge
// (importer <- exporter) becomes the copy rule
//
//	<importer>.data(x, y) <- <exporter>.data(x, y)
//
// or, with Rule set to ExistentialRule, the null-generating variant
//
//	<importer>.data(x, z) <- <exporter>.data(x, y)
//
// (or one of the other RuleKind templates), so one harness covers both plain materialisation and marked-null
// workloads. Data flows toward node 0 (the conventional update initiator /
// query origin of the experiments).
package topo

import (
	"fmt"
	"math/rand"

	"codb/internal/config"
	"codb/internal/relation"
)

// Shape names a topology family.
type Shape string

// Topology families used throughout the benchmarks (DESIGN.md E1–E7).
const (
	Chain    Shape = "chain"
	Ring     Shape = "ring"
	Star     Shape = "star"
	Tree     Shape = "tree"
	Grid     Shape = "grid"
	Random   Shape = "random"
	Complete Shape = "complete"
	// Fanout is the reverse star: every leaf imports from hub N0, so an
	// update initiated at the hub ships the hub's data to all n-1 leaves
	// at once — the outbound-pipeline stress shape of the batching
	// benchmarks.
	Fanout Shape = "fanout"
)

// Shapes lists every family, in the order the experiment tables use.
func Shapes() []Shape { return []Shape{Chain, Ring, Star, Tree, Grid, Random, Complete, Fanout} }

// RuleKind selects the shape of the generated coordination rules.
type RuleKind uint8

const (
	// CopyRule is the identity mapping data(x,y) <- data(x,y).
	CopyRule RuleKind = iota
	// ExistentialRule maps data(x,z) <- data(x,y): the value is unknown
	// at the importer and becomes a marked null.
	ExistentialRule
	// ProjectionRule maps data(x,0) <- data(x,y): many source tuples
	// collapse onto one imported tuple, which is what the per-link sent
	// caches deduplicate.
	ProjectionRule
	// JoinRule maps data(x,z) <- data(x,y), data(y,z): a self-join at
	// the exporter, exercising the hash join and its nested-loop reference.
	JoinRule
)

// Options tunes generation.
type Options struct {
	// Rule selects the rule template (default CopyRule).
	Rule RuleKind
	// EdgeProb is the edge probability for Random (default 0.3).
	EdgeProb float64
	// Seed makes Random deterministic.
	Seed int64
	// Version stamps the generated configuration (default 1).
	Version int
	// FanRules is the number of parallel coordination rules per Fanout
	// edge (default 1): with k > 1 every leaf imports from the hub
	// through k distinct rules, multiplying the messages per pipe — the
	// coalescing workload of the batching benchmarks.
	FanRules int
}

// NodeName returns the canonical generated peer name.
func NodeName(i int) string { return fmt.Sprintf("N%d", i) }

// Build generates a configuration with n peers arranged in the shape.
func Build(shape Shape, n int, opts Options) (*config.Config, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: need at least one node, got %d", n)
	}
	version := opts.Version
	if version == 0 {
		version = 1
	}
	cfg := &config.Config{Version: version}
	for i := 0; i < n; i++ {
		schema := relation.NewSchema()
		schema.MustAdd(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
			{Name: "k", Type: relation.TInt},
			{Name: "v", Type: relation.TInt},
		}})
		cfg.Nodes = append(cfg.Nodes, config.Node{Name: NodeName(i), Schema: schema})
	}
	edges, err := edgesFor(shape, n, opts)
	if err != nil {
		return nil, err
	}
	for i, e := range edges {
		imp, exp := NodeName(e.importer), NodeName(e.exporter)
		var text string
		switch opts.Rule {
		case ExistentialRule:
			text = fmt.Sprintf("%s.data(x, z) <- %s.data(x, y)", imp, exp)
		case ProjectionRule:
			text = fmt.Sprintf("%s.data(x, 0) <- %s.data(x, y)", imp, exp)
		case JoinRule:
			text = fmt.Sprintf("%s.data(x, z) <- %s.data(x, y), %s.data(y, z)", imp, exp, exp)
		default:
			text = fmt.Sprintf("%s.data(x, y) <- %s.data(x, y)", imp, exp)
		}
		cfg.Rules = append(cfg.Rules, config.Rule{ID: fmt.Sprintf("e%d", i), Text: text})
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// edge is one coordination rule: importer pulls from exporter.
type edge struct{ importer, exporter int }

func edgesFor(shape Shape, n int, opts Options) ([]edge, error) {
	var edges []edge
	switch shape {
	case Chain:
		// N0 <- N1 <- ... <- N(n-1).
		for i := 0; i < n-1; i++ {
			edges = append(edges, edge{i, i + 1})
		}
	case Ring:
		// Chain plus the closing edge N(n-1) <- N0.
		if n < 2 {
			return nil, fmt.Errorf("topo: ring needs >= 2 nodes")
		}
		for i := 0; i < n-1; i++ {
			edges = append(edges, edge{i, i + 1})
		}
		edges = append(edges, edge{n - 1, 0})
	case Star:
		// Hub N0 imports from every leaf.
		for i := 1; i < n; i++ {
			edges = append(edges, edge{0, i})
		}
	case Fanout:
		// Every leaf imports from hub N0, through FanRules parallel rules.
		k := opts.FanRules
		if k < 1 {
			k = 1
		}
		for i := 1; i < n; i++ {
			for j := 0; j < k; j++ {
				edges = append(edges, edge{i, 0})
			}
		}
	case Tree:
		// Complete binary tree; parents import from children.
		for i := 1; i < n; i++ {
			edges = append(edges, edge{(i - 1) / 2, i})
		}
	case Grid:
		// Square-ish grid; each cell imports from its right and lower
		// neighbours, so data flows toward cell 0.
		w := 1
		for w*w < n {
			w++
		}
		idx := func(r, c int) int { return r*w + c }
		for r := 0; r < w; r++ {
			for c := 0; c < w; c++ {
				if idx(r, c) >= n {
					continue
				}
				if c+1 < w && idx(r, c+1) < n {
					edges = append(edges, edge{idx(r, c), idx(r, c+1)})
				}
				if r+1 < w && idx(r+1, c) < n {
					edges = append(edges, edge{idx(r, c), idx(r+1, c)})
				}
			}
		}
	case Random:
		p := opts.EdgeProb
		if p <= 0 {
			p = 0.3
		}
		rnd := rand.New(rand.NewSource(opts.Seed))
		// Guarantee weak connectivity with a random spanning arborescence
		// toward node 0, then sprinkle random extra edges.
		for i := 1; i < n; i++ {
			edges = append(edges, edge{rnd.Intn(i), i})
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rnd.Float64() < p/float64(2) {
					edges = append(edges, edge{i, j})
				}
			}
		}
		edges = dedupEdges(edges)
	case Complete:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					edges = append(edges, edge{i, j})
				}
			}
		}
	default:
		return nil, fmt.Errorf("topo: unknown shape %q", shape)
	}
	return edges, nil
}

func dedupEdges(edges []edge) []edge {
	seen := make(map[edge]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}
