package codb

// Randomized differential test harness: the oracle for both the
// incremental-export machinery and the concurrent read path.
//
// For every randomized scenario — topology shape (acyclic and cyclic),
// network size, workload, insert/update trace — the same trace runs twice:
// once with the default cross-session incremental export and once with
// FullExport and nested-loop joins (the paper-faithful full re-ship over the
// evaluator's correctness reference, sharing no join code with the default
// path). After every update round the two networks must hold byte-identical
// databases, and their certain answers to a panel of queries must agree
// exactly.
//
// The final round additionally checks the concurrent read path against
// quiescent evaluation: queries issued *while* the update runs must be
// sandwiched between the pre-update and post-quiescence answer sets
// (updates only insert, and conjunctive queries are monotone, so any
// consistent snapshot's answers lie between the two), and the
// post-quiescence answers of the snapshot-plus-cache path must equal a
// direct evaluation over the raw database instance.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/topo"
	"codb/internal/workload"
)

// diffScenario is one randomized differential trial.
type diffScenario struct {
	seed   int64
	shape  topo.Shape
	nodes  int
	tuples int
	rounds int
	burst  int
	// shards is left from a retired storage-layout dimension, like par= in
	// name: it only keeps the subtest names test histories know.
	shards int
	// spill runs the network under test on durable storage with tiny
	// changelog rings and tiny WAL segments, so the incremental-export
	// hot path is forced through changelog spill and segment-served
	// Changes; the scenario then asserts zero history-lost fallbacks.
	spill bool
	// tcp runs the network under test over real sockets speaking the
	// versioned binary wire protocol, while the reference stays on the
	// in-process bus — so byte-identity also proves the codec loses
	// nothing in flight.
	tcp bool
}

// name is the scenario's subtest name. Its last field, par=1 or par=4, is
// left from a retired evaluation-parallelism dimension; it keeps every
// scenario's name — what failure reports and test histories know it by —
// unchanged.
func (sc diffScenario) name() string {
	return fmt.Sprintf("%s/n=%d/seed=%d/shards=%d/tcp=%v/par=%d", sc.shape, sc.nodes, sc.seed, sc.shards, sc.tcp, 1+3*(sc.seed%2))
}

// diffShapes mixes acyclic (chain, tree, star, grid) and cyclic (ring,
// random-with-back-edges) rule graphs.
var diffShapes = []topo.Shape{topo.Chain, topo.Ring, topo.Tree, topo.Star, topo.Grid, topo.Random}

// diffShards cycles the shards= name field.
var diffShards = []int{1, 2, 8}

func diffScenarios(n int) []diffScenario {
	out := make([]diffScenario, 0, n)
	for s := 0; s < n; s++ {
		out = append(out, diffScenario{
			seed:   int64(1000 + s),
			shape:  diffShapes[s%len(diffShapes)],
			nodes:  3 + s%4,
			tuples: 15 + (s%3)*10,
			rounds: 2 + s%2,
			burst:  4 + s%5,
			shards: diffShards[s%len(diffShards)],
			spill:  s%3 == 1, // every third scenario runs the spill hot path
			tcp:    s%4 == 2, // every fourth runs over real TCP sockets
		})
	}
	return out
}

// storeOptions resolves the network-under-test's storage knobs: spill
// scenarios run durable with rings far smaller than the workload and
// segments a few records long, so Changes must be answered from retained
// WAL segments to stay incremental.
func (sc diffScenario) storeOptions(t *testing.T) storage.Options {
	var opts storage.Options
	if sc.spill {
		opts.Dir = t.TempDir() // per-node subdirectories are added below
		opts.ChangelogLimit = 6
		opts.SegmentBytes = 256
	}
	return opts
}

// networkFromTopo builds an in-process network (one peer per node with the
// given storage options, rules on both endpoints) from a generated
// topology. A non-empty store.Dir gets one subdirectory per node.
func networkFromTopo(t *testing.T, cfg *config.Config, opts NetworkOptions, store storage.Options) *Network {
	t.Helper()
	nw := NewNetworkWithOptions(opts)
	for _, node := range cfg.Nodes {
		nodeStore := store
		if store.Dir != "" {
			nodeStore.Dir = filepath.Join(store.Dir, node.Name)
		}
		db, err := storage.Open(nodeStore)
		if err != nil {
			nw.Close()
			t.Fatal(err)
		}
		if err := db.DefineSchema(node.Schema); err != nil {
			nw.Close()
			t.Fatal(err)
		}
		if _, err := nw.join(node.Name, core.NewStoreWrapper(db)); err != nil {
			nw.Close()
			t.Fatal(err)
		}
		nw.mu.Lock()
		nw.dbs[node.Name] = db
		nw.mu.Unlock()
	}
	for _, r := range cfg.Rules {
		if err := nw.AddRule(r.ID, r.Text); err != nil {
			nw.Close()
			t.Fatal(err)
		}
	}
	return nw
}

// fingerprint renders a network's entire data as deterministic bytes:
// peers sorted, relations sorted, tuples in key order.
func fingerprint(nw *Network) []byte {
	nw.mu.Lock()
	names := make([]string, 0, len(nw.dbs))
	for name := range nw.dbs {
		names = append(names, name)
	}
	dbs := make(map[string]*storage.DB, len(nw.dbs))
	for name, db := range nw.dbs {
		dbs[name] = db
	}
	nw.mu.Unlock()
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		in := dbs[name].Instance()
		rels := make([]string, 0, len(in))
		for rel := range in {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		fmt.Fprintf(&buf, "@%s\n", name)
		for _, rel := range rels {
			fmt.Fprintf(&buf, "#%s\n", rel)
			keys := make([]string, 0, len(in[rel]))
			for _, tu := range in.Tuples(rel) {
				keys = append(keys, tu.Key())
			}
			sort.Strings(keys)
			for _, k := range keys {
				buf.WriteString(k)
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes()
}

// diffQueries is the certain-answer panel checked between the two modes.
var diffQueries = []string{
	`ans(x, y) :- data(x, y)`,
	`ans(x) :- data(x, y), y >= 0`,
	`ans(x, z) :- data(x, y), data(y, z)`,
}

// answerSet evaluates one query at one peer and returns the sorted answer
// keys.
func answerSet(t *testing.T, nw *Network, node, query string, mode QueryMode) []string {
	t.Helper()
	rows, err := nw.LocalQuery(node, query, mode)
	if err != nil {
		t.Fatalf("LocalQuery %s @ %s: %v", query, node, err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetKeys reports a ⊆ b for sorted key slices.
func subsetKeys(a, b []string) bool {
	i := 0
	for _, k := range a {
		for i < len(b) && b[i] < k {
			i++
		}
		if i >= len(b) || b[i] != k {
			return false
		}
		i++
	}
	return true
}

// applyBurst commits the round's fresh tuples to every node of one network
// (identically on both networks of a scenario).
func applyBurst(t *testing.T, nw *Network, names []string, sc diffScenario, round int) {
	t.Helper()
	for ni, name := range names {
		tuples := make([]relation.Tuple, sc.burst)
		for j := range tuples {
			k := 5_000_000 + round*100_000 + ni*1_000 + j
			tuples[j] = relation.Tuple{relation.Int(k), relation.Int(round)}
		}
		if err := nw.Insert(name, "data", tuples...); err != nil {
			t.Fatal(err)
		}
	}
}

// burstKey is the key of the first tuple applyBurst commits at node ni in a
// round; its value is the round number.
func burstKey(round, ni int) int { return 5_000_000 + round*100_000 + ni*1_000 }

// distQueries is the distributed-query panel: a lookup and a self-join with
// a constant that only the round's burst at one peer can answer, and the
// unconstrained self-join.
func distQueries(key int) []string {
	return []string{
		fmt.Sprintf(`ans(v) :- data(%d, v)`, key),
		fmt.Sprintf(`ans(z) :- data(%d, y), data(y, z)`, key),
		`ans(x, z) :- data(x, y), data(y, z)`,
	}
}

var distModes = []QueryMode{AllAnswers, CertainAnswers}

// distAnswers holds one node's answers to the distributed panel, per query
// and mode: what the distributed query streamed, and what the node could
// answer locally just before it.
type distAnswers struct {
	node     string
	panel    []string
	local    [][]string
	streamed [][]string
}

// askDistributed runs the panel as distributed queries at one node of the
// network under test. It is called after a round's burst and before the
// round's update, so the burst is still unmaterialised and the answers have
// to be fetched through the links and streamed semi-naively at the origin.
func askDistributed(t *testing.T, nw *Network, node string, key int) distAnswers {
	t.Helper()
	da := distAnswers{node: node, panel: distQueries(key)}
	for _, q := range da.panel {
		for _, mode := range distModes {
			da.local = append(da.local, answerSet(t, nw, node, q, mode))
			rows, err := nw.Query(ctxT(t), node, q, mode)
			if err != nil {
				t.Fatalf("distributed query %s @ %s: %v", q, node, err)
			}
			keys := make([]string, len(rows))
			for i, r := range rows {
				keys[i] = r.Key()
			}
			sort.Strings(keys)
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("distributed query %s @ %s streamed an answer twice", q, node)
				}
			}
			da.streamed = append(da.streamed, keys)
		}
	}
	return da
}

// check compares the streamed answers with the reference network's local
// answers after the round's update has materialised everything. On acyclic
// rule graphs query-time fetching reaches the fixpoint, so the two are
// equal; on cyclic ones path labels make it the simple-path approximation,
// which lies between the pre-query local answers and the fixpoint's.
func (da distAnswers) check(t *testing.T, ref *Network, acyclic bool, what string) {
	t.Helper()
	i := 0
	for _, q := range da.panel {
		for _, mode := range distModes {
			want := answerSet(t, ref, da.node, q, mode)
			got, local := da.streamed[i], da.local[i]
			i++
			switch {
			case acyclic && !equalKeys(got, want):
				t.Fatalf("%s: distributed %q @ %s (mode %d) streamed %d answers, the fixpoint has %d",
					what, q, da.node, mode, len(got), len(want))
			case !subsetKeys(local, got):
				t.Fatalf("%s: distributed %q @ %s (mode %d) lost local answers", what, q, da.node, mode)
			case !subsetKeys(got, want):
				t.Fatalf("%s: distributed %q @ %s (mode %d) streamed answers outside the fixpoint", what, q, da.node, mode)
			}
		}
	}
}

func acyclicShape(s topo.Shape) bool { return s != topo.Ring && s != topo.Random }

func TestDifferentialIncrementalVsFullExport(t *testing.T) {
	const scenarios = 26 // ≥ 25 randomized topologies
	for _, sc := range diffScenarios(scenarios) {
		sc := sc
		t.Run(sc.name(), func(t *testing.T) {
			t.Parallel()
			cfg, err := topo.Build(sc.shape, sc.nodes, topo.Options{Seed: sc.seed})
			if err != nil {
				t.Fatal(err)
			}
			// Spill scenarios run the network under test durable with tiny
			// rings + segments; tcp scenarios run it over real sockets with
			// the binary wire codec. The FullExport reference always runs in
			// memory on the bus, joining by nested loops, so the
			// byte-identity check also covers hash/probe-vs-nested-loop
			// joins, spilled-vs-resident storage, and wire-vs-bus transport.
			incr := networkFromTopo(t, cfg,
				NetworkOptions{Transport: TransportGroup{TCP: sc.tcp}},
				sc.storeOptions(t))
			defer incr.Close()
			full := networkFromTopo(t, cfg,
				NetworkOptions{FullExport: true, NestedLoopJoin: true},
				storage.Options{})
			defer full.Close()

			names := make([]string, 0, len(cfg.Nodes))
			for _, n := range cfg.Nodes {
				names = append(names, n.Name)
			}
			seed := workload.Generate(names, workload.Spec{
				TuplesPerNode: sc.tuples,
				Overlap:       0.2,
				Seed:          sc.seed,
			})
			for node, tuples := range seed {
				for _, nw := range []*Network{incr, full} {
					if err := nw.Insert(node, "data", tuples...); err != nil {
						t.Fatal(err)
					}
				}
			}

			rnd := rand.New(rand.NewSource(sc.seed))
			for round := 0; round < sc.rounds; round++ {
				if round > 0 {
					applyBurst(t, incr, names, sc, round)
					applyBurst(t, full, names, sc, round)
				}
				origin := names[rnd.Intn(len(names))]
				// Distributed queries over the still unmaterialised burst
				// (the first round's seed data, likewise), asked where the
				// update is about to start.
				dist := askDistributed(t, incr, origin, burstKey(round, len(names)-1))
				if _, err := incr.Update(ctxT(t), origin); err != nil {
					t.Fatalf("incremental update round %d: %v", round, err)
				}
				if _, err := full.Update(ctxT(t), origin); err != nil {
					t.Fatalf("full update round %d: %v", round, err)
				}
				dist.check(t, full, acyclicShape(sc.shape), fmt.Sprintf("round %d", round))

				// Byte-identical databases after every round.
				fi, ff := fingerprint(incr), fingerprint(full)
				if !bytes.Equal(fi, ff) {
					t.Fatalf("round %d (origin %s): databases diverged\nincremental:\n%s\nfull:\n%s",
						round, origin, fi, ff)
				}
				// Identical certain answers, at every peer, for the panel.
				for _, name := range names {
					for _, q := range diffQueries {
						ai := answerSet(t, incr, name, q, CertainAnswers)
						af := answerSet(t, full, name, q, CertainAnswers)
						if !equalKeys(ai, af) {
							t.Fatalf("round %d: certain answers diverge at %s for %q: %d vs %d",
								round, name, q, len(ai), len(af))
						}
					}
				}
			}

			if sc.spill {
				// The point of changelog spill: despite rings far smaller
				// than the traffic, no exporter ever lost history — the
				// deltas were served from retained WAL segments instead of
				// degrading to full re-exports.
				fallbacks, incremental := exportTotals(t, incr, names)
				if fallbacks != 0 {
					t.Fatalf("spill scenario recorded %d history-lost fallback exports, want 0", fallbacks)
				}
				if sc.rounds > 1 && incremental == 0 {
					t.Fatal("spill scenario never exported incrementally")
				}
			}
		})
	}
}

// TestDifferentialChurn sandwiches runtime membership churn between update
// rounds: after each round one non-origin peer leaves (tombstone flood)
// and rejoins as a new incarnation over its own durable directory — in TCP
// mode on a fresh listener port — with its rules re-declared. The churn
// network must still converge byte-identically to a static-membership
// FullExport reference that never churns, and no survivor may ever exhaust
// a dial against a departed incarnation's stale address.
func TestDifferentialChurn(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		tcp := tcp
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			t.Parallel()
			sc := diffScenario{seed: 4242, shape: topo.Star, nodes: 4, tuples: 12, rounds: 4, burst: 5}
			cfg, err := topo.Build(sc.shape, sc.nodes, topo.Options{Seed: sc.seed})
			if err != nil {
				t.Fatal(err)
			}
			churnDir := t.TempDir()
			churn := networkFromTopo(t, cfg,
				NetworkOptions{Transport: TransportGroup{TCP: tcp}},
				storage.Options{Dir: churnDir})
			defer churn.Close()
			full := networkFromTopo(t, cfg,
				NetworkOptions{FullExport: true, NestedLoopJoin: true},
				storage.Options{})
			defer full.Close()

			names := make([]string, 0, len(cfg.Nodes))
			for _, n := range cfg.Nodes {
				names = append(names, n.Name)
			}
			seed := workload.Generate(names, workload.Spec{TuplesPerNode: sc.tuples, Overlap: 0.2, Seed: sc.seed})
			for node, tuples := range seed {
				for _, nw := range []*Network{churn, full} {
					if err := nw.Insert(node, "data", tuples...); err != nil {
						t.Fatal(err)
					}
				}
			}

			origin := names[0]
			for round := 0; round < sc.rounds; round++ {
				if round > 0 {
					// One non-origin peer churns: leave, then rejoin as a
					// fresh incarnation over the same durable directory.
					victim := names[1+(round-1)%(len(names)-1)]
					churn.RemovePeer(victim)
					if _, err := churn.AddDurablePeer(victim, filepath.Join(churnDir, victim), "data(x int, y int)"); err != nil {
						t.Fatalf("round %d: rejoin %s: %v", round, victim, err)
					}
					for _, r := range cfg.Rules {
						rule, err := cq.ParseRule(r.ID, r.Text)
						if err != nil {
							t.Fatal(err)
						}
						if rule.Target == victim || rule.Source == victim {
							if err := churn.AddRule(r.ID, r.Text); err != nil {
								t.Fatalf("round %d: re-declare %s: %v", round, r.ID, err)
							}
						}
					}
					applyBurst(t, churn, names, sc, round)
					applyBurst(t, full, names, sc, round)
				}
				// Distributed queries through the just-rejoined incarnation:
				// the constant is a key only the victim's burst holds.
				victimIdx := 1 + (round+len(names)-2)%(len(names)-1)
				dist := askDistributed(t, churn, origin, burstKey(round, victimIdx))
				if _, err := churn.Update(ctxT(t), origin); err != nil {
					t.Fatalf("churn update round %d: %v", round, err)
				}
				if _, err := full.Update(ctxT(t), origin); err != nil {
					t.Fatalf("reference update round %d: %v", round, err)
				}
				dist.check(t, full, acyclicShape(sc.shape), fmt.Sprintf("churn round %d", round))
				fi, ff := fingerprint(churn), fingerprint(full)
				if !bytes.Equal(fi, ff) {
					t.Fatalf("round %d: churn network diverged from static reference\nchurn:\n%s\nreference:\n%s",
						round, fi, ff)
				}
			}
			if tcp {
				for _, name := range names {
					if n, ok := churn.Peer(name).DialFailures(); ok && n != 0 {
						t.Errorf("%s exhausted %d dials against stale addresses, want 0", name, n)
					}
				}
			}
		})
	}
}

// TestDifferentialPropagationPolicies randomizes the per-link propagation
// policy — every rule independently push, pull, or adaptive — and runs the
// usual randomized trace against an all-push FullExport reference. Lazy
// links are allowed to lag while the round runs; after Network.CatchUp
// (which pulls every link up to date) the databases must be byte-identical
// to the eager reference and the certain-answer panel must agree exactly.
func TestDifferentialPropagationPolicies(t *testing.T) {
	policyModes := []string{"push", "pull", "adaptive"}
	for _, sc := range diffScenarios(9) {
		sc := sc
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", sc.shape, sc.nodes, sc.seed), func(t *testing.T) {
			t.Parallel()
			cfg, err := topo.Build(sc.shape, sc.nodes, topo.Options{Seed: sc.seed})
			if err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(sc.seed*7 + 3))
			policies := make(map[string]string, len(cfg.Rules))
			lazyLinks := 0
			for _, r := range cfg.Rules {
				mode := policyModes[rnd.Intn(len(policyModes))]
				policies[r.ID] = mode
				if mode != "push" {
					lazyLinks++
				}
			}
			if lazyLinks == 0 { // degenerate draw: force at least one lazy link
				policies[cfg.Rules[0].ID] = "pull"
			}
			lazy := networkFromTopo(t, cfg,
				NetworkOptions{Propagation: PropagationGroup{Policies: policies}},
				storage.Options{})
			defer lazy.Close()
			full := networkFromTopo(t, cfg,
				NetworkOptions{FullExport: true, NestedLoopJoin: true},
				storage.Options{})
			defer full.Close()

			names := make([]string, 0, len(cfg.Nodes))
			for _, n := range cfg.Nodes {
				names = append(names, n.Name)
			}
			seed := workload.Generate(names, workload.Spec{TuplesPerNode: sc.tuples, Overlap: 0.2, Seed: sc.seed})
			for node, tuples := range seed {
				for _, nw := range []*Network{lazy, full} {
					if err := nw.Insert(node, "data", tuples...); err != nil {
						t.Fatal(err)
					}
				}
			}

			for round := 0; round < sc.rounds; round++ {
				if round > 0 {
					applyBurst(t, lazy, names, sc, round)
					applyBurst(t, full, names, sc, round)
				}
				origin := names[rnd.Intn(len(names))]
				// Query sessions are explicit demand: every link exports
				// eagerly for them, whatever its update policy.
				dist := askDistributed(t, lazy, origin, burstKey(round, len(names)-1))
				if _, err := lazy.Update(ctxT(t), origin); err != nil {
					t.Fatalf("lazy update round %d: %v", round, err)
				}
				if _, err := full.Update(ctxT(t), origin); err != nil {
					t.Fatalf("reference update round %d: %v", round, err)
				}
				dist.check(t, full, acyclicShape(sc.shape), fmt.Sprintf("round %d, policies %v", round, policies))
				// Pull-effective links may lag until the catch-up pull.
				if _, err := lazy.CatchUp(ctxT(t)); err != nil {
					t.Fatalf("catch-up round %d: %v", round, err)
				}
				fi, ff := fingerprint(lazy), fingerprint(full)
				if !bytes.Equal(fi, ff) {
					t.Fatalf("round %d (origin %s, policies %v): caught-up lazy network diverged\nlazy:\n%s\nfull:\n%s",
						round, origin, policies, fi, ff)
				}
				for _, name := range names {
					for _, q := range diffQueries {
						al := answerSet(t, lazy, name, q, CertainAnswers)
						af := answerSet(t, full, name, q, CertainAnswers)
						if !equalKeys(al, af) {
							t.Fatalf("round %d: certain answers diverge at %s for %q: %d vs %d",
								round, name, q, len(al), len(af))
						}
					}
				}
			}
		})
	}
}

// TestDifferentialPropagationChurn churns the *exporter* of a pull link:
// after its extent has been pulled once (persisting the link's export
// watermark durably), the exporter leaves and rejoins as a new incarnation
// over the same durable directory. The next hint/pull cycle must resume
// from the restored watermark — shipping exactly the post-rejoin delta,
// not a full re-export — and the importer must still converge to the
// exporter's exact extent. A second importer, c, takes the same extent over
// an adaptive link and is never read. A separate chain of pull links then
// pins what a pull is: a scoped session, so transitive, and a scoped session
// that materialises rows hints the pull links downstream of them.
func TestDifferentialPropagationChurn(t *testing.T) {
	dirB := t.TempDir()
	nw := NewNetworkWithOptions(NetworkOptions{
		Propagation: PropagationGroup{Policies: map[string]string{"r1": "pull", "r2": "adaptive"}},
	})
	defer nw.Close()
	for _, name := range []string{"a", "c"} {
		if _, err := nw.AddPeer(name, "data(x int, y int)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.AddDurablePeer("b", dirB, "data(x int, y int)"); err != nil {
		t.Fatal(err)
	}
	nw.MustAddRule("r1", `a.data(x, y) <- b.data(x, y)`)
	nw.MustAddRule("r2", `c.data(x, y) <- b.data(x, y)`)

	const seeded = 30
	for i := 0; i < seeded; i++ {
		if err := nw.Insert("b", "data", Row(Int(i), Int(0))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	if got := nw.Peer("a").Count("data"); got != 0 {
		t.Fatalf("pull link leaked %d tuples eagerly", got)
	}
	if n, err := nw.CatchUp(ctxT(t)); err != nil || n != seeded {
		t.Fatalf("catch-up pulled %d tuples (err %v), want %d", n, err, seeded)
	}

	// The exporter churns: leave, rejoin over the same durable directory,
	// re-declare the rule (the network re-applies the pull policy).
	nw.RemovePeer("b")
	if _, err := nw.AddDurablePeer("b", dirB, "data(x int, y int)"); err != nil {
		t.Fatal(err)
	}
	nw.MustAddRule("r1", `a.data(x, y) <- b.data(x, y)`)
	nw.MustAddRule("r2", `c.data(x, y) <- b.data(x, y)`)

	const delta = 5
	for i := 0; i < delta; i++ {
		if err := nw.Insert("b", "data", Row(Int(1000+i), Int(1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, rep := range nw.Peer("a").Reports() {
		seen[rep.SID] = true
	}
	if n, err := nw.CatchUp(ctxT(t)); err != nil || n != delta {
		t.Fatalf("post-rejoin catch-up applied %d fresh tuples (err %v), want %d", n, err, delta)
	}
	// The pull resumed from the durable watermark: the
	// pull sessions carried only the post-rejoin delta over r1, not the
	// whole extent.
	shipped := 0
	for _, rep := range nw.Peer("a").Reports() {
		if !seen[rep.SID] && rep.Kind == msg.KindScoped {
			shipped += rep.TuplesPerRule["r1"]
		}
	}
	if shipped != delta {
		t.Errorf("post-rejoin pull shipped %d bindings over r1, want %d (export state not resumed)", shipped, delta)
	}
	if got, want := nw.Peer("a").Count("data"), seeded+delta; got != want {
		t.Fatalf("a.data = %d after churn catch-up, want %d", got, want)
	}
	ka := answerSet(t, nw, "a", diffQueries[0], AllAnswers)
	kb := answerSet(t, nw, "b", diffQueries[0], AllAnswers)
	if !equalKeys(ka, kb) {
		t.Fatalf("importer extent (%d) != churned exporter extent (%d)", len(ka), len(kb))
	}

	// A read is demand: after the next update the hinted link is pulled by
	// the importer's local query itself, which sees the fresh tuples with no
	// catch-up, and waited no longer than the pull timeout for them.
	for i := 0; i < delta; i++ {
		if err := nw.Insert("b", "data", Row(Int(2000+i), Int(2))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	if got, want := len(answerSet(t, nw, "a", diffQueries[0], AllAnswers)), seeded+2*delta; got != want {
		t.Fatalf("a read after the update sees %d tuples, want %d: the read did not pull", got, want)
	}
	if st, _ := nw.PeerPropagationStats("a"); st.StalenessP99 > peer.DefaultPullTimeout {
		t.Errorf("staleness p99 %v exceeds the pull timeout %v", st.StalenessP99, peer.DefaultPullTimeout)
	}

	// Three updates have now pushed to the unread c, past the adaptive
	// demotion threshold: the next update moves no data over its link, and
	// a catch-up still brings c level with its exporter.
	pushedToC := func() uint64 {
		st, _ := nw.PeerPropagationStats("b")
		for _, l := range st.Links {
			if l.RuleID == "r2" {
				return l.BytesPushed
			}
		}
		return 0
	}
	pushed := pushedToC()
	for i := 0; i < delta; i++ {
		if err := nw.Insert("b", "data", Row(Int(3000+i), Int(3))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.Update(ctxT(t), "b"); err != nil {
		t.Fatal(err)
	}
	if now := pushedToC(); now != pushed {
		t.Errorf("cold adaptive link pushed %d bytes in its fourth update, want 0", now-pushed)
	}
	if _, err := nw.CatchUp(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := nw.Peer("c").Count("data"), seeded+3*delta; got != want {
		t.Fatalf("c.data = %d after catch-up, want %d", got, want)
	}

	// A pull is transitive: on the pull chain x <- y <- z, an update at z
	// only hints y, and one pull at x still brings x level with z.
	chain := NewNetworkWithOptions(NetworkOptions{
		Propagation: PropagationGroup{Policies: map[string]string{"p1": "pull", "p2": "pull"}},
	})
	defer chain.Close()
	for _, name := range []string{"x", "y", "z"} {
		if _, err := chain.AddPeer(name, "data(x int, y int)"); err != nil {
			t.Fatal(err)
		}
	}
	chain.MustAddRule("p1", `x.data(x, y) <- y.data(x, y)`)
	chain.MustAddRule("p2", `y.data(x, y) <- z.data(x, y)`)
	insertAtZ := func(base int) {
		t.Helper()
		for i := 0; i < delta; i++ {
			if err := chain.Insert("z", "data", Row(Int(base+i), Int(0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	staleAt := func(name string, want ...string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			stale := chain.Peer(name).StaleLinks()
			if slices.Equal(stale, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s's stale links: %v, want %v", name, stale, want)
			}
		}
	}
	insertAtZ(0)
	if _, err := chain.Update(ctxT(t), "z"); err != nil {
		t.Fatal(err)
	}
	staleAt("y", "p2")
	if n, err := chain.Peer("x").PullLink(ctxT(t), "p1"); err != nil || n != delta {
		t.Fatalf("one pull at the chain's head materialised %d tuples (err %v), want %d", n, err, delta)
	}
	if got := chain.Peer("y").Count("data"); got != delta {
		t.Fatalf("the pull left %d tuples at the intermediate y, want %d", got, delta)
	}
	// The pull reached y over p2 and left it level with z: y's own record of
	// p2 clears too.
	staleAt("y")

	// A scoped update that materialises rows at y makes y's pull link to x
	// stale, as an update session delivering them would.
	if stale := chain.Peer("x").StaleLinks(); len(stale) != 0 {
		t.Fatalf("x's links are stale after its pull: %v", stale)
	}
	insertAtZ(100)
	if _, err := chain.ScopedUpdate(ctxT(t), "y", "data"); err != nil {
		t.Fatal(err)
	}
	staleAt("x", "p1")
}

// exportTotals sums fallback and incremental export counts across every
// peer's session reports, polling briefly so late-finalising participant
// reports are counted.
func exportTotals(t *testing.T, nw *Network, names []string) (fallbacks, incremental int) {
	t.Helper()
	stableFor := 0
	last := -1
	deadline := time.Now().Add(5 * time.Second)
	for {
		fallbacks, incremental = 0, 0
		total := 0
		for _, name := range names {
			for _, rep := range nw.Peer(name).Reports() {
				fallbacks += rep.ExportsFallback
				incremental += rep.ExportsIncremental
				total += rep.ExportsFallback + rep.ExportsIncremental + rep.ExportsFull
			}
		}
		if total == last {
			stableFor++
			if stableFor >= 3 {
				return fallbacks, incremental
			}
		} else {
			stableFor = 0
			last = total
		}
		if time.Now().After(deadline) {
			return fallbacks, incremental
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDifferentialConcurrentQueriesSandwich checks the concurrent read
// path against quiescent evaluation on randomized topologies: queries
// racing an update must return answer sets between the pre-update and
// post-quiescence sets, and post-quiescence snapshot answers must equal a
// direct evaluation over the raw database.
func TestDifferentialConcurrentQueriesSandwich(t *testing.T) {
	for _, sc := range diffScenarios(8) {
		sc := sc
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d/shards=%d", sc.shape, sc.nodes, sc.seed, sc.shards), func(t *testing.T) {
			t.Parallel()
			cfg, err := topo.Build(sc.shape, sc.nodes, topo.Options{Seed: sc.seed})
			if err != nil {
				t.Fatal(err)
			}
			nw := networkFromTopo(t, cfg, NetworkOptions{}, storage.Options{})
			defer nw.Close()
			names := make([]string, 0, len(cfg.Nodes))
			for _, n := range cfg.Nodes {
				names = append(names, n.Name)
			}
			seed := workload.Generate(names, workload.Spec{TuplesPerNode: 40, Overlap: 0.2, Seed: sc.seed})
			for node, tuples := range seed {
				if err := nw.Insert(node, "data", tuples...); err != nil {
					t.Fatal(err)
				}
			}
			applyBurst(t, nw, names, sc, 1)

			const query = `ans(x, y) :- data(x, y)`
			origin := names[0]
			pre := answerSet(t, nw, origin, query, AllAnswers)

			// Readers race the update.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var mu sync.Mutex
			var concurrent [][]string
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got := answerSet(t, nw, origin, query, AllAnswers)
						mu.Lock()
						concurrent = append(concurrent, got)
						mu.Unlock()
					}
				}()
			}
			if _, err := nw.Update(ctxT(t), origin); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			post := answerSet(t, nw, origin, query, AllAnswers)
			for i, got := range concurrent {
				if !subsetKeys(pre, got) {
					t.Fatalf("concurrent result %d lost pre-update answers (%d vs pre %d)", i, len(got), len(pre))
				}
				if !subsetKeys(got, post) {
					t.Fatalf("concurrent result %d contains answers absent after quiescence (%d vs post %d)", i, len(got), len(post))
				}
			}

			// Post-quiescence snapshot+cache answers == direct evaluation
			// over the raw instance (cache invalidation correctness).
			nw.mu.Lock()
			db := nw.dbs[origin]
			nw.mu.Unlock()
			direct, err := cq.Eval(cq.MustParseQuery(query), db.Instance(), cq.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			directKeys := make([]string, len(direct))
			for i, r := range direct {
				directKeys[i] = r.Key()
			}
			sort.Strings(directKeys)
			if !equalKeys(post, directKeys) {
				t.Fatalf("post-quiescence snapshot answers (%d) != direct evaluation (%d)", len(post), len(directKeys))
			}
			// And the repeat is a cache hit that still matches.
			again := answerSet(t, nw, origin, query, AllAnswers)
			if !equalKeys(again, post) {
				t.Fatal("cached repeat diverged from post-quiescence answers")
			}
			if st, ok := nw.PeerReadStats(origin); !ok || st.Hits == 0 {
				t.Fatalf("expected cache hits at %s, stats %+v ok=%v", origin, st, ok)
			}
		})
	}
}
