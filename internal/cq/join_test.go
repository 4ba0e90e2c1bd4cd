package cq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"codb/internal/relation"
	"codb/internal/storage"
)

// Properties of the hash join over mixed-kind data, where value identity
// (Value.Equal) and == part: the join keys hash by Equal, so -0.0 and +0.0
// join apart and NaN joins with itself, and a tuple of the wrong arity never
// matches. Every entry point is checked against the nested loop and refEval,
// the deltas against refEval with the delta occurrence renamed.

// mixedValue draws an int, a string, a float (both zeros, two NaN bit
// patterns, 1) or a marked null, from a small domain so joins match often.
func mixedValue(rnd *rand.Rand) relation.Value {
	switch rnd.Intn(4) {
	case 0:
		return relation.Int(rnd.Intn(3))
	case 1:
		return relation.Str([]string{"", "a", "b"}[rnd.Intn(3)])
	case 2:
		return relation.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000000), 1}[rnd.Intn(5)])
	default:
		return relation.Null([]string{"n1", "n2"}[rnd.Intn(2)])
	}
}

// mixedTuple draws a tuple of rel's arity, one in eight of a wrong one.
func mixedTuple(rnd *rand.Rand, arity int) relation.Tuple {
	if rnd.Intn(8) == 0 {
		if arity++; rnd.Intn(2) == 0 && arity > 2 {
			arity -= 2
		}
	}
	t := make(relation.Tuple, arity)
	for i := range t {
		t[i] = mixedValue(rnd)
	}
	return t
}

var mixedArity = map[string]int{"p": 1, "q": 2, "r": 3}

func mixedData(rnd *rand.Rand, max int) map[string][]relation.Tuple {
	out := make(map[string][]relation.Tuple)
	for _, rel := range []string{"p", "q", "r"} {
		for i, n := 0, rnd.Intn(max+1); i < n; i++ {
			out[rel] = append(out[rel], mixedTuple(rnd, mixedArity[rel]))
		}
	}
	return out
}

// mixedQuery draws one to three atoms, self-joins favoured, with variables
// repeated inside an atom, mixed-kind constants, cartesian steps wherever
// two atoms share no variable, and up to two comparisons: between two
// variables (bound mid-plan when different atoms bind them) or with a
// constant. The head holds body variables and sometimes a constant.
func mixedQuery(rnd *rand.Rand) *Query {
	pool := []string{"a", "b", "c", "d"}
	rels := []string{"p", "q", "r"}
	var body []Atom
	for i, n := 0, rnd.Intn(3)+1; i < n; i++ {
		rel := rels[rnd.Intn(len(rels))]
		if i > 0 && rnd.Intn(2) == 0 {
			rel = body[i-1].Rel
		}
		a := Atom{Rel: rel, Terms: make([]Term, mixedArity[rel])}
		for j := range a.Terms {
			if rnd.Intn(5) == 0 {
				a.Terms[j] = C(mixedValue(rnd))
			} else {
				a.Terms[j] = V(pool[rnd.Intn(len(pool))])
			}
		}
		body = append(body, a)
	}
	var vars []string
	for _, a := range body {
		vars = a.Vars(vars)
	}
	q := &Query{Head: Atom{Rel: "ans"}, Body: body}
	for i, n := 0, rnd.Intn(len(vars)+1); i < n; i++ {
		q.Head.Terms = append(q.Head.Terms, V(vars[rnd.Intn(len(vars))]))
	}
	if len(q.Head.Terms) == 0 || rnd.Intn(4) == 0 {
		q.Head.Terms = append(q.Head.Terms, C(mixedValue(rnd)))
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for i, n := 0, rnd.Intn(3); i < n && len(vars) > 0; i++ {
		c := Comparison{Op: ops[rnd.Intn(len(ops))], L: V(vars[rnd.Intn(len(vars))]), R: C(mixedValue(rnd))}
		if rnd.Intn(2) == 0 {
			c.R = V(vars[rnd.Intn(len(vars))])
		}
		q.Cmps = append(q.Cmps, c)
	}
	return q
}

// deltaSource is a source with one more relation, the delta.
type deltaSource struct {
	Source
	delta []relation.Tuple
}

const deltaName = "\x00delta"

func (s deltaSource) Scan(rel string, fn func(relation.Tuple) bool) {
	if rel != deltaName {
		s.Source.Scan(rel, fn)
		return
	}
	for _, t := range s.delta {
		if !fn(t) {
			return
		}
	}
}

// refDelta is the semi-naive contract spelt out with refEval: the union,
// over every occurrence of rel, of q with that occurrence reading delta.
func refDelta(q *Query, src Source, rel string, delta []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for k := range q.Body {
		if q.Body[k].Rel != rel {
			continue
		}
		qk := *q
		qk.Body = slices.Clone(q.Body)
		qk.Body[k].Rel = deltaName
		out = append(out, refEval(&qk, deltaSource{src, delta})...)
	}
	return distinct(out)
}

// sameSet compares two answers as sets under Equal, ordered by encoding:
// Compare calls NaN equal to every float, so it orders no canonical list.
func sameSet(a, b []relation.Tuple) bool {
	keys := func(ts []relation.Tuple) []string {
		ks := make([]string, len(ts))
		for i, t := range ts {
			ks[i] = t.Key()
		}
		slices.Sort(ks)
		return ks
	}
	return slices.Equal(keys(a), keys(b))
}

func hasNaN(ts []relation.Tuple) bool {
	for _, t := range ts {
		for _, v := range t {
			if v.Kind == relation.KindFloat && math.IsNaN(v.Float) {
				return true
			}
		}
	}
	return false
}

// TestDifferentialMixedKinds: over mixed-kind data, HashJoin (probing an
// EqScanner, and building over a plain source, in the same order) returns
// what NestedLoop and refEval return, for Eval, EvalDelta, EvalSetDelta and
// EvalQueryDelta with every body relation's delta in turn — a self-joined
// relation's delta standing at each of its occurrences.
func TestDifferentialMixedKinds(t *testing.T) {
	var probes, nanJoins, selfJoins int
	for seed := int64(0); seed < 800; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		data := mixedData(rnd, 10)
		q := mixedQuery(rnd)
		inst := toInstance(data)
		spy := &probeSpy{set: toSet(data)}
		vars := q.BodyVars()
		outVars := vars[:rnd.Intn(len(vars)+1)]
		qv := &Query{Head: Atom{Rel: "ans", Terms: varTerms(outVars)}, Body: q.Body, Cmps: q.Cmps}
		fail := func(what string, got, want []relation.Tuple) {
			t.Helper()
			t.Fatalf("seed %d: %s: %s\n got:  %v\n want: %v", seed, q, what, got, want)
		}
		must := func(ts []relation.Tuple, err error) []relation.Tuple {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			return ts
		}
		// both runs one entry point by HashJoin over the probing and the
		// plain source (same order) and by NestedLoop, against want.
		both := func(what string, want []relation.Tuple, eval func(Source, EvalOptions) ([]relation.Tuple, error)) {
			t.Helper()
			before := spy.probes
			probed := must(eval(spy, EvalOptions{}))
			probes += spy.probes - before
			built := must(eval(scanOnly{inst}, EvalOptions{}))
			nested := must(eval(inst, EvalOptions{Strategy: NestedLoop}))
			if !equalInOrder(probed, built) {
				fail(what+", index probe vs hash build", probed, built)
			}
			if !sameSet(built, want) {
				fail(what+", hash join vs refEval", built, want)
			}
			if !sameSet(nested, want) {
				fail(what+", nested loop vs refEval", nested, want)
			}
			if hasNaN(built) && len(q.Body) > 1 {
				nanJoins++
			}
		}

		both("Eval", refEval(q, inst), func(src Source, opts EvalOptions) ([]relation.Tuple, error) {
			return Eval(q, src, opts)
		})
		for _, rel := range q.Relations() {
			occurrences := 0
			for _, a := range q.Body {
				if a.Rel == rel {
					occurrences++
				}
			}
			if occurrences > 1 {
				selfJoins++
			}
			var delta []relation.Tuple
			for i, n := 0, rnd.Intn(6); i < n; i++ {
				if rows := data[rel]; len(rows) > 0 && rnd.Intn(3) > 0 {
					delta = append(delta, rows[rnd.Intn(len(rows))])
				} else {
					delta = append(delta, mixedTuple(rnd, mixedArity[rel]))
				}
			}
			set := distinct(delta)
			both("EvalDelta over "+rel, refDelta(qv, inst, rel, delta), func(src Source, opts EvalOptions) ([]relation.Tuple, error) {
				return EvalDelta(q.Body, q.Cmps, outVars, src, rel, delta, opts)
			})
			both("EvalSetDelta over "+rel, refDelta(qv, inst, rel, set), func(src Source, opts EvalOptions) ([]relation.Tuple, error) {
				return EvalSetDelta(q.Body, q.Cmps, outVars, src, rel, set, opts)
			})
			both("EvalQueryDelta over "+rel, refDelta(q, inst, rel, set), func(src Source, opts EvalOptions) ([]relation.Tuple, error) {
				return EvalQueryDelta(q, src, rel, set, opts)
			})
		}
	}
	if probes == 0 || nanJoins == 0 || selfJoins == 0 {
		t.Fatalf("weak generator: %d probes, %d joins answering NaN, %d self-joined deltas", probes, nanJoins, selfJoins)
	}
}

// TestSelfJoinDeltaAllocs pins the hash join's allocations to the steps of
// the plan, not to the rows: the self-join EvalSetDelta of 512 and then
// 1,024 delta rows over a 4k-row storage snapshot (hash build, as past
// probeMaxOuter). A row of matched tuples shares one slice per step and the
// projection one slab, so doubling the delta adds a handful of allocations;
// a partial binding per match would add thousands.
func TestSelfJoinDeltaAllocs(t *testing.T) {
	const rows = 4096
	db := storage.MustOpenMem()
	def := &relation.RelDef{Name: "data", Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}}}
	if err := db.DefineRelation(def); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	ts := make([]relation.Tuple, rows)
	for i := range ts {
		ts[i] = relation.Tuple{relation.Int(i), relation.Int(rnd.Intn(rows))}
	}
	if _, err := db.InsertMany("data", ts); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	body := MustParseQuery(`ans(x, z) :- data(x, y), data(y, z)`).Body
	allocs := func(n int) (float64, int) {
		var got []relation.Tuple
		a := testing.AllocsPerRun(5, func() {
			var err error
			if got, err = EvalSetDelta(body, nil, []string{"x", "z"}, snap, "data", ts[:n], EvalOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		return a, len(got)
	}
	small, smallOut := allocs(512)
	large, largeOut := allocs(1024)
	t.Logf("512 delta rows: %.0f allocations, %d bindings; 1,024: %.0f, %d", small, smallOut, large, largeOut)
	if largeOut < 2*smallOut-smallOut/4 {
		t.Fatalf("the larger delta gave %d bindings against %d: too few to tell", largeOut, smallOut)
	}
	if large > 2*small || large-small > 16 || large > 160 {
		t.Errorf("allocations %.0f at 512 delta rows, %.0f at 1,024: they follow the rows", small, large)
	}
}
