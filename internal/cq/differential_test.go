package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"codb/internal/relation"
	"codb/internal/storage"
)

// Differential properties of the delta-driven evaluation paths: each fast
// path must return exactly what the general path it replaced returns —
// the index-probe join step against the hash build and the nested loop, the
// single-atom projection against the compiled plan, and the semi-naive
// query entry point, summed over batches, against one evaluation of
// everything. Bodies, heads and instances come from the generators of
// TestQuickStrategiesAgree, extended with head constants, marked nulls and
// duplicate delta tuples.

// probeSpy is an EqScanner over a relation.Set that counts probes. It hides
// the set's ScanRange: a range walk at a position past the first delivers by
// value, not in key order, and these properties compare orders across the
// probe step alone (TestRangeDifferential covers the range path).
type probeSpy struct {
	set    *relation.Set
	probes int
}

func (s *probeSpy) Scan(rel string, fn func(relation.Tuple) bool) { s.set.Scan(rel, fn) }

func (s *probeSpy) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	s.probes++
	s.set.ScanEq(rel, pos, v, fn)
}

// scanOnly hides a source's ScanEq, which keeps the hash build over
// otherwise the same data.
type scanOnly struct{ Source }

func randomValue(rnd *rand.Rand) relation.Value {
	if rnd.Intn(8) == 0 {
		return relation.Null([]string{"n1", "n2"}[rnd.Intn(2)])
	}
	return relation.Int(rnd.Intn(4))
}

// randomTuples draws up to max tuples per relation of p/1, q/2, r/3,
// duplicates included.
func randomTuples(rnd *rand.Rand, max int) map[string][]relation.Tuple {
	out := make(map[string][]relation.Tuple)
	for rel, arity := range map[string]int{"p": 1, "q": 2, "r": 3} {
		for i, n := 0, rnd.Intn(max+1); i < n; i++ {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = randomValue(rnd)
			}
			out[rel] = append(out[rel], t)
		}
	}
	return out
}

func toInstance(ts map[string][]relation.Tuple) relation.Instance {
	in := relation.NewInstance()
	for rel, rows := range ts {
		for _, t := range rows {
			in.Insert(rel, t)
		}
	}
	return in
}

func toSet(ts map[string][]relation.Tuple) *relation.Set {
	s := relation.NewSet()
	for rel, rows := range ts {
		for _, t := range rows {
			s.Insert(rel, t.Key(), t)
		}
	}
	return s
}

// randomQueryWithConsts is randomQuery with, sometimes, a constant spliced
// into the head.
func randomQueryWithConsts(rnd *rand.Rand) *Query {
	q := randomQuery(rnd)
	if rnd.Intn(3) == 0 {
		i := rnd.Intn(len(q.Head.Terms) + 1)
		terms := append([]Term{}, q.Head.Terms[:i]...)
		terms = append(terms, C(relation.Int(rnd.Intn(4))))
		q.Head.Terms = append(terms, q.Head.Terms[i:]...)
	}
	return q
}

func equalInOrder(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDifferentialIndexProbe: the hash strategy over an EqScanner source
// (index-probe step taken) returns the same answers in the same order as
// over a plain source (hash build), and the same set as the nested loop.
func TestDifferentialIndexProbe(t *testing.T) {
	probes := 0
	for seed := int64(0); seed < 600; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		data := randomTuples(rnd, 12)
		q := randomQueryWithConsts(rnd)
		spy := &probeSpy{set: toSet(data)}
		probed, err := Eval(q, spy, EvalOptions{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}
		probes += spy.probes
		built, err := Eval(q, toInstance(data), EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInOrder(probed, built) {
			t.Fatalf("seed %d: %s\n index probe: %v\n hash build:  %v", seed, q, probed, built)
		}
		nested, err := Eval(q, toInstance(data), EvalOptions{Strategy: NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(probed, nested) {
			t.Fatalf("seed %d: %s\n index probe: %v\n nested loop: %v", seed, q, probed, nested)
		}
	}
	if probes == 0 {
		t.Fatal("no evaluation probed the EqScanner")
	}
}

// TestIndexProbePathTaken pins when the join step probes: a small outer set
// against an atom without constants, over an EqScanner.
func TestIndexProbePathTaken(t *testing.T) {
	data := map[string][]relation.Tuple{}
	for i := 0; i < 300; i++ {
		data["q"] = append(data["q"], relation.Tuple{relation.Int(i), relation.Int(i + 1)})
	}
	join := MustParseQuery(`ans(z) :- q(7, y), q(y, z)`)
	spy := &probeSpy{set: toSet(data)}
	got, err := Eval(join, spy, EvalOptions{})
	if err != nil || len(got) != 1 || got[0][0] != relation.Int(9) {
		t.Fatalf("self-join = %v, %v", got, err)
	}
	if spy.probes != 2 { // the constant's pushdown, then one probe for the one binding
		t.Errorf("self-join made %d ScanEq calls, want 2", spy.probes)
	}

	// An outer set past probeMaxOuter keeps the hash build too.
	wide := MustParseQuery(`ans(x, z) :- q(x, y), q(y, z)`)
	spy = &probeSpy{set: toSet(data)}
	if _, err := Eval(wide, spy, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	if spy.probes != 0 {
		t.Errorf("300 outer bindings probed %d times, want a hash build", spy.probes)
	}

	// The delta atom is never probed: it is scanned from the delta.
	delta := []relation.Tuple{{relation.Int(3), relation.Int(4)}}
	spy = &probeSpy{set: toSet(data)}
	if _, err := EvalDelta(wide.Body, nil, []string{"x", "z"}, spy, "q", delta, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	if spy.probes != 2 { // one probe of the other occurrence per delta occurrence
		t.Errorf("delta evaluation probed %d times, want 2", spy.probes)
	}
}

// randomSingleAtom draws a one-atom body over p/1, q/2 or r/3 with
// constants and repeated variables, and a head over its variables and
// constants: half the time one that keeps every variable (an injective
// projection, in a random order), otherwise up to three random terms.
func randomSingleAtom(rnd *rand.Rand) (head []Term, atom Atom) {
	pool := []string{"a", "b", "c"}
	rels := []struct {
		name  string
		arity int
	}{{"p", 1}, {"q", 2}, {"r", 3}}
	rel := rels[rnd.Intn(len(rels))]
	atom = Atom{Rel: rel.name, Terms: make([]Term, rel.arity)}
	for j := range atom.Terms {
		if rnd.Intn(4) == 0 {
			atom.Terms[j] = C(randomValue(rnd))
		} else {
			atom.Terms[j] = V(pool[rnd.Intn(len(pool))])
		}
	}
	vars := atom.Vars(nil)
	if rnd.Intn(2) == 0 {
		for _, i := range rnd.Perm(len(vars)) {
			head = append(head, V(vars[i]))
		}
		if len(head) == 0 || rnd.Intn(4) == 0 {
			i := rnd.Intn(len(head) + 1)
			head = append(head[:i], append([]Term{C(relation.Int(rnd.Intn(4)))}, head[i:]...)...)
		}
		return head, atom
	}
	for i, n := 0, rnd.Intn(3)+1; i < n; i++ {
		if len(vars) == 0 || rnd.Intn(4) == 0 {
			head = append(head, C(relation.Int(rnd.Intn(4))))
		} else {
			head = append(head, V(vars[rnd.Intn(len(vars))]))
		}
	}
	return head, atom
}

// distinct drops repeated tuples, keeping first occurrences in order.
func distinct(ts []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(ts))
	var out []relation.Tuple
	for _, t := range ts {
		if k := t.Key(); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// TestDifferentialSingleAtom: the single-atom projection equals the general
// plan (reached through the nested-loop reference strategy), in the same
// order, on random one-atom bodies with constants and repeated variables,
// injective heads and not: over a source scan, over a delta with duplicates,
// and over a delta that is a set, where an injective projection keys no row.
// A projection wrongly taken for injective ships duplicates on the
// dedup-free path, which this catches.
func TestDifferentialSingleAtom(t *testing.T) {
	var injectiveDups, lossyDups int
	for seed := int64(0); seed < 1200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		head, atom := randomSingleAtom(rnd)
		body := []Atom{atom}
		data := randomTuples(rnd, 12)
		delta := randomTuples(rnd, 8)[atom.Rel]
		set := distinct(delta)
		src := &probeSpy{set: toSet(data)}

		fast, err1 := evalProject(head, body, nil, src, nil, nil, false, EvalOptions{})
		general, err2 := evalProject(head, body, nil, src, nil, nil, false, EvalOptions{Strategy: NestedLoop})
		if err1 != nil || err2 != nil || !equalInOrder(fast, general) {
			t.Fatalf("seed %d: %v <- %v\n fast:    %v %v\n general: %v %v", seed, head, atom, fast, err1, general, err2)
		}
		for _, c := range []struct {
			delta    []relation.Tuple
			setDelta bool
		}{{delta, false}, {set, true}} {
			fast, err1 = evalDelta(head, body, nil, src, atom.Rel, c.delta, c.setDelta, EvalOptions{})
			general, err2 = evalDelta(head, body, nil, src, atom.Rel, c.delta, c.setDelta, EvalOptions{Strategy: NestedLoop})
			if err1 != nil || err2 != nil || !equalInOrder(fast, general) {
				t.Fatalf("seed %d: %v <- %v over delta %v (set %v)\n fast:    %v %v\n general: %v %v", seed, head, atom, c.delta, c.setDelta, fast, err1, general, err2)
			}
		}

		// Tally the cases that decide the dedup: matches of the set delta
		// colliding on their projection happen only for lossy heads.
		if matches, _ := evalDelta(atom.Terms, body, nil, src, atom.Rel, set, true, EvalOptions{Strategy: NestedLoop}); len(matches) > 1 {
			if injective(&atom, []Atom{{Terms: head}}) {
				injectiveDups++
			} else if rows, _ := evalDelta(head, body, nil, src, atom.Rel, set, true, EvalOptions{Strategy: NestedLoop}); len(rows) < len(matches) {
				lossyDups++
			}
		}
	}
	if injectiveDups == 0 || lossyDups == 0 {
		t.Fatalf("weak generator: %d injective and %d collapsing projections over several matches", injectiveDups, lossyDups)
	}

	// An unbound projection variable is an error on both paths, and only
	// once a tuple matches.
	body := []Atom{{Rel: "q", Terms: []Term{V("a"), V("b")}}}
	head := []Term{V("nope")}
	some := &probeSpy{set: toSet(map[string][]relation.Tuple{"q": {{relation.Int(1), relation.Int(2)}}})}
	none := &probeSpy{set: relation.NewSet()}
	for _, opts := range []EvalOptions{{}, {Strategy: NestedLoop}} {
		if _, err := evalProject(head, body, nil, some, nil, nil, false, opts); err == nil {
			t.Errorf("strategy %d: unbound projection variable accepted", opts.Strategy)
		}
		if _, err := evalProject(head, body, nil, none, nil, nil, false, opts); err != nil {
			t.Errorf("strategy %d: empty relation: %v", opts.Strategy, err)
		}
	}
}

// TestDifferentialSemiNaiveQuery: for a random split of an instance into
// batches, Eval over the first batch plus EvalQueryDelta over each later
// one — every relation's fresh tuples inserted before any delta is
// evaluated, as a query origin does per data message — yields exactly Eval
// over the whole instance. Head constants, repeated variables, self-joins
// and comparisons come with the generator.
func TestDifferentialSemiNaiveQuery(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		data := randomTuples(rnd, 14)
		q := randomQueryWithConsts(rnd)
		want, err := Eval(q, toInstance(data), EvalOptions{})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}

		nBatches := rnd.Intn(4) + 1
		batches := make([]map[string][]relation.Tuple, nBatches)
		for i := range batches {
			batches[i] = make(map[string][]relation.Tuple)
		}
		for rel, rows := range data {
			for _, row := range rows {
				b := batches[rnd.Intn(nBatches)]
				b[rel] = append(b[rel], row)
			}
		}

		for _, opts := range []EvalOptions{{}, {Strategy: NestedLoop}} {
			src := relation.NewSet()
			seen := make(map[string]bool)
			var got []relation.Tuple
			stream := func(answers []relation.Tuple) {
				for _, a := range answers {
					if k := a.Key(); !seen[k] {
						seen[k] = true
						got = append(got, a)
					}
				}
			}
			for i, batch := range batches {
				fresh := make(map[string][]relation.Tuple)
				for rel, rows := range batch {
					for _, row := range rows {
						if src.Insert(rel, row.Key(), row) {
							fresh[rel] = append(fresh[rel], row)
						}
					}
				}
				if i == 0 {
					answers, err := Eval(q, src, opts)
					if err != nil {
						t.Fatal(err)
					}
					stream(answers)
					continue
				}
				for _, rel := range q.Relations() {
					if len(fresh[rel]) == 0 {
						continue
					}
					answers, err := EvalQueryDelta(q, src, rel, fresh[rel], opts)
					if err != nil {
						t.Fatalf("seed %d: %s over fresh %s: %v", seed, q, rel, err)
					}
					stream(answers)
				}
			}
			if !sameTuples(got, want) {
				t.Fatalf("seed %d, strategy %d: %s in %d batches\n streamed: %v\n whole:    %v", seed, opts.Strategy, q, nBatches, got, want)
			}
		}
	}
}

// BenchmarkSelfJoinProbe joins k outer bindings against a 20k-row storage
// snapshot (warm secondary views), by index probe and by hash build. outer=1
// is the self-join template of the read-write-mix and query-fetch
// workloads; the larger sizes are where probeMaxOuter's comment gets its
// per-probe and per-row costs.
func BenchmarkSelfJoinProbe(b *testing.B) {
	const rows = 20000
	db := storage.MustOpenMem()
	def := &relation.RelDef{Name: "data", Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}}}
	if err := db.DefineRelation(def); err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Int(i), relation.Int(rnd.Intn(rows))}
	}
	if _, err := db.InsertMany("data", ts); err != nil {
		b.Fatal(err)
	}
	snap := db.Snapshot()
	body := MustParseQuery(`ans(x, z) :- data(x, y), data(y, z)`).Body
	for _, outer := range []int{1, 16, 128} {
		delta := ts[:outer]
		for _, side := range []struct {
			name string
			src  Source
		}{{"probe", snap}, {"build", scanOnly{snap}}} {
			b.Run(fmt.Sprintf("outer=%d/%s", outer, side.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := EvalDelta(body, nil, []string{"x", "z"}, side.src, "data", delta, EvalOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
