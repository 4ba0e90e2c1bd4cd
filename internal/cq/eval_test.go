package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"codb/internal/relation"
)

// refEval is a brutally simple reference evaluator: enumerate all
// assignments atom by atom in source order, no planning, no hashing.
func refEval(q *Query, src Source) []relation.Tuple {
	var results []relation.Tuple
	seen := make(map[string]bool)
	var rec func(i int, env map[string]relation.Value)
	rec = func(i int, env map[string]relation.Value) {
		if i == len(q.Body) {
			for _, c := range q.Cmps {
				l, r := c.L.Const, c.R.Const
				if c.L.IsVar() {
					l = env[c.L.Var]
				}
				if c.R.IsVar() {
					r = env[c.R.Var]
				}
				if !c.Op.Eval(l, r) {
					return
				}
			}
			t := make(relation.Tuple, len(q.Head.Terms))
			for j, term := range q.Head.Terms {
				if term.IsVar() {
					t[j] = env[term.Var]
				} else {
					t[j] = term.Const
				}
			}
			if k := t.Key(); !seen[k] {
				seen[k] = true
				results = append(results, t)
			}
			return
		}
		a := q.Body[i]
		src.Scan(a.Rel, func(tp relation.Tuple) bool {
			if len(tp) != len(a.Terms) {
				return true
			}
			next := make(map[string]relation.Value, len(env)+len(a.Terms))
			for k, v := range env {
				next[k] = v
			}
			for j, term := range a.Terms {
				if !term.IsVar() {
					if tp[j] != term.Const {
						return true
					}
					continue
				}
				if bound, ok := next[term.Var]; ok {
					if bound != tp[j] {
						return true
					}
					continue
				}
				next[term.Var] = tp[j]
			}
			rec(i+1, next)
			return true
		})
	}
	rec(0, map[string]relation.Value{})
	return results
}

func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func testInstance() relation.Instance {
	in := relation.NewInstance()
	// emp(id, name, dept)
	in.Insert("emp", relation.Tuple{relation.Int(1), relation.Str("ann"), relation.Str("it")})
	in.Insert("emp", relation.Tuple{relation.Int(2), relation.Str("bob"), relation.Str("hr")})
	in.Insert("emp", relation.Tuple{relation.Int(3), relation.Str("cyd"), relation.Str("it")})
	// dept(name, manager)
	in.Insert("dept", relation.Tuple{relation.Str("it"), relation.Str("ann")})
	in.Insert("dept", relation.Tuple{relation.Str("hr"), relation.Str("dee")})
	return in
}

func TestEvalSingleAtom(t *testing.T) {
	q := MustParseQuery(`ans(x, n) :- emp(x, n, d)`)
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(q, testInstance(), EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Errorf("strategy %d: %d answers", s, len(got))
		}
	}
}

func TestEvalJoin(t *testing.T) {
	q := MustParseQuery(`ans(n, m) :- emp(x, n, d), dept(d, m)`)
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(q, testInstance(), EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		want := refEval(q, testInstance())
		if !sameTuples(got, want) {
			t.Errorf("strategy %d: got %v, want %v", s, got, want)
		}
		if len(got) != 3 {
			t.Errorf("strategy %d: %d answers, want 3", s, len(got))
		}
	}
}

func TestEvalConstantsInBody(t *testing.T) {
	q := MustParseQuery(`ans(x) :- emp(x, n, "it")`)
	got, err := Eval(q, testInstance(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalComparisons(t *testing.T) {
	q := MustParseQuery(`ans(x) :- emp(x, n, d), x > 1, d != "hr"`)
	got, err := Eval(q, testInstance(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != relation.Int(3) {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("r", relation.Tuple{relation.Int(1), relation.Int(1)})
	in.Insert("r", relation.Tuple{relation.Int(1), relation.Int(2)})
	q := MustParseQuery(`ans(x) :- r(x, x)`)
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(q, in, EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0][0] != relation.Int(1) {
			t.Errorf("strategy %d: answers = %v", s, got)
		}
	}
}

func TestEvalSelfJoin(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("edge", relation.Tuple{relation.Int(1), relation.Int(2)})
	in.Insert("edge", relation.Tuple{relation.Int(2), relation.Int(3)})
	in.Insert("edge", relation.Tuple{relation.Int(3), relation.Int(1)})
	q := MustParseQuery(`ans(x, z) :- edge(x, y), edge(y, z)`)
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(q, in, EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Errorf("strategy %d: answers = %v", s, got)
		}
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("a", relation.Tuple{relation.Int(1)})
	in.Insert("a", relation.Tuple{relation.Int(2)})
	in.Insert("b", relation.Tuple{relation.Str("x")})
	in.Insert("b", relation.Tuple{relation.Str("y")})
	q := MustParseQuery(`ans(x, y) :- a(x), b(y)`)
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(q, in, EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Errorf("strategy %d: answers = %v", s, got)
		}
	}
}

func TestEvalEmptyRelation(t *testing.T) {
	q := MustParseQuery(`ans(x) :- ghost(x)`)
	got, err := Eval(q, testInstance(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalHeadConstant(t *testing.T) {
	q := MustParseQuery(`ans(x, "tag") :- emp(x, n, d), x = 1`)
	got, err := Eval(q, testInstance(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1] != relation.Str("tag") {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalNullSemantics(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("r", relation.Tuple{relation.Null("u1"), relation.Int(1)})
	in.Insert("r", relation.Tuple{relation.Null("u2"), relation.Int(2)})
	in.Insert("s", relation.Tuple{relation.Null("u1")})

	// Nulls join by label: only u1 matches.
	q := MustParseQuery(`ans(y) :- r(x, y), s(x)`)
	got, _ := Eval(q, in, EvalOptions{})
	if len(got) != 1 || got[0][0] != relation.Int(1) {
		t.Errorf("null join answers = %v", got)
	}

	// Order comparisons over nulls are false.
	q2 := MustParseQuery(`ans(y) :- r(x, y), x > 0`)
	got2, _ := Eval(q2, in, EvalOptions{})
	if len(got2) != 0 {
		t.Errorf("null comparison answers = %v", got2)
	}

	// FilterCertain drops null-carrying answers.
	q3 := MustParseQuery(`ans(x, y) :- r(x, y)`)
	got3, _ := Eval(q3, in, EvalOptions{})
	if len(got3) != 2 {
		t.Fatalf("all answers = %v", got3)
	}
	if cert := FilterCertain(got3); len(cert) != 0 {
		t.Errorf("certain answers = %v", cert)
	}
}

func TestFilterCertainNullFreeAllocs(t *testing.T) {
	ts := []relation.Tuple{{relation.Int(1), relation.Str("a")}, {relation.Int(2), relation.Str("b")}}
	var got []relation.Tuple
	if allocs := testing.AllocsPerRun(100, func() { got = FilterCertain(ts) }); allocs != 0 {
		t.Errorf("FilterCertain on null-free input: %v allocs, want 0", allocs)
	}
	if len(got) != len(ts) || &got[0] != &ts[0] {
		t.Errorf("null-free input not returned as is: %v", got)
	}
}

func TestFilterCertainLeavesInputIntact(t *testing.T) {
	null := relation.Null("n")
	ts := []relation.Tuple{
		{relation.Int(1)}, {null}, {relation.Int(2)}, {null}, {relation.Int(3)},
	}
	before := slices.Clone(ts)
	got := FilterCertain(ts)
	want := []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}, {relation.Int(3)}}
	if !slices.EqualFunc(got, want, relation.Tuple.Equal) {
		t.Errorf("FilterCertain = %v, want %v", got, want)
	}
	if !slices.EqualFunc(ts, before, relation.Tuple.Equal) {
		t.Errorf("FilterCertain wrote to its input: %v, was %v", ts, before)
	}
}

func TestEvalAllConstantComparison(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("r", relation.Tuple{relation.Int(1)})
	for _, s := range []Strategy{HashJoin, NestedLoop} {
		got, err := Eval(MustParseQuery(`ans(x) :- r(x), 2 < 1`), in, EvalOptions{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("strategy %d: false constant comparison did not filter: %v", s, got)
		}
		got, err = Eval(MustParseQuery(`ans(x) :- r(x), 1 < 2`), in, EvalOptions{Strategy: s})
		if err != nil || len(got) != 1 {
			t.Errorf("strategy %d: true constant comparison filtered: %v %v", s, got, err)
		}
	}
}

func TestEvalBindings(t *testing.T) {
	q := MustParseQuery(`ans(x) :- emp(x, n, d), dept(d, m)`)
	got, err := EvalBindings(q.Body, q.Cmps, []string{"n", "m"}, testInstance(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("bindings = %v", got)
	}
	if _, err := EvalBindings(q.Body, q.Cmps, []string{"zz"}, testInstance(), EvalOptions{}); err == nil {
		t.Error("unbound output variable accepted")
	}
}

func TestEvalDeltaSemiNaive(t *testing.T) {
	in := testInstance()
	body := MustParseQuery(`ans(n, m) :- emp(x, n, d), dept(d, m)`).Body

	// Delta on emp: a new employee in dept "hr".
	delta := []relation.Tuple{{relation.Int(9), relation.Str("zoe"), relation.Str("hr")}}
	in.Insert("emp", delta[0]) // delta already applied to the store
	got, err := EvalDelta(body, nil, []string{"n", "m"}, in, "emp", delta, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != relation.Str("zoe") || got[0][1] != relation.Str("dee") {
		t.Errorf("delta results = %v", got)
	}

	// Delta on a relation not in the body: no results.
	got, err = EvalDelta(body, nil, []string{"n"}, in, "ghost", delta, EvalOptions{})
	if err != nil || len(got) != 0 {
		t.Errorf("ghost delta = %v, %v", got, err)
	}
}

func TestEvalDeltaSelfJoinBothOccurrences(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("edge", relation.Tuple{relation.Int(1), relation.Int(2)})
	in.Insert("edge", relation.Tuple{relation.Int(2), relation.Int(3)})
	body := MustParseQuery(`ans(x, z) :- edge(x, y), edge(y, z)`).Body
	// New edge 3->1 creates paths via BOTH positions: (2,1) using it as the
	// second atom and (3,2) using it as the first.
	delta := []relation.Tuple{{relation.Int(3), relation.Int(1)}}
	in.Insert("edge", delta[0])
	got, err := EvalDelta(body, nil, []string{"x", "z"}, in, "edge", delta, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{
		{relation.Int(2), relation.Int(1)},
		{relation.Int(3), relation.Int(2)},
	}
	if !sameTuples(got, want) {
		t.Errorf("delta results = %v, want %v", got, want)
	}
}

// Property: hash join, nested loop and the reference evaluator agree on
// random queries over random instances.
func TestQuickStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := relation.NewInstance()
		// Three relations with arities 1..3 over a small int domain.
		arity := map[string]int{"p": 1, "q": 2, "r": 3}
		for rel, ar := range arity {
			n := r.Intn(12)
			for i := 0; i < n; i++ {
				t := make(relation.Tuple, ar)
				for j := range t {
					t[j] = relation.Int(r.Intn(4))
				}
				in.Insert(rel, t)
			}
		}
		q := randomQuery(r)
		hash, err1 := Eval(q, in, EvalOptions{Strategy: HashJoin})
		nested, err2 := Eval(q, in, EvalOptions{Strategy: NestedLoop})
		if err1 != nil || err2 != nil {
			t.Logf("query %s: %v %v", q, err1, err2)
			return false
		}
		ref := refEval(q, in)
		if !sameTuples(hash, ref) || !sameTuples(nested, ref) {
			t.Logf("query %s: hash=%v nested=%v ref=%v", q, hash, nested, ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomQuery builds a random safe query over relations p/1, q/2, r/3 with
// variables drawn from a small pool, plus occasional constants and
// comparisons.
func randomQuery(rnd *rand.Rand) *Query {
	pool := []string{"a", "b", "c", "d"}
	rels := []struct {
		name  string
		arity int
	}{{"p", 1}, {"q", 2}, {"r", 3}}
	nAtoms := rnd.Intn(3) + 1
	var body []Atom
	for i := 0; i < nAtoms; i++ {
		rel := rels[rnd.Intn(len(rels))]
		terms := make([]Term, rel.arity)
		for j := range terms {
			if rnd.Intn(5) == 0 {
				terms[j] = C(relation.Int(rnd.Intn(4)))
			} else {
				terms[j] = V(pool[rnd.Intn(len(pool))])
			}
		}
		body = append(body, Atom{Rel: rel.name, Terms: terms})
	}
	var bodyVars []string
	for _, a := range body {
		bodyVars = a.Vars(bodyVars)
	}
	var head Atom
	head.Rel = "ans"
	if len(bodyVars) == 0 {
		// All-constant body; make a constant head.
		head.Terms = []Term{C(relation.Int(0))}
	} else {
		n := rnd.Intn(len(bodyVars)) + 1
		for i := 0; i < n; i++ {
			head.Terms = append(head.Terms, V(bodyVars[rnd.Intn(len(bodyVars))]))
		}
	}
	var cmps []Comparison
	if len(bodyVars) > 0 && rnd.Intn(2) == 0 {
		ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		cmps = append(cmps, Comparison{
			Op: ops[rnd.Intn(len(ops))],
			L:  V(bodyVars[rnd.Intn(len(bodyVars))]),
			R:  C(relation.Int(rnd.Intn(4))),
		})
	}
	return &Query{Head: head, Body: body, Cmps: cmps}
}

// eqSpy wraps an instance and records ScanEq pushdown calls.
type eqSpy struct {
	relation.Instance
	calls int
}

func (s *eqSpy) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	s.calls++
	s.Instance.Scan(rel, func(t relation.Tuple) bool {
		if len(t) > pos && t[pos] == v {
			return fn(t)
		}
		return true
	})
}

func TestEvalConstantPushdown(t *testing.T) {
	spy := &eqSpy{Instance: testInstance()}
	q := MustParseQuery(`ans(x) :- emp(x, n, "it")`)
	got, err := Eval(q, spy, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
	if spy.calls == 0 {
		t.Error("constant was not pushed down to the EqScanner")
	}
	// Correctness must match the plain-source evaluation.
	plain, _ := Eval(q, testInstance(), EvalOptions{})
	if !sameTuples(got, plain) {
		t.Errorf("pushdown changed answers: %v vs %v", got, plain)
	}
	// Atoms without constants must not use the pushdown path.
	spy2 := &eqSpy{Instance: testInstance()}
	if _, err := Eval(MustParseQuery(`ans(x) :- emp(x, n, d)`), spy2, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	if spy2.calls != 0 {
		t.Errorf("pushdown used without constants (%d calls)", spy2.calls)
	}
}

func BenchmarkEvalHashJoin(b *testing.B)   { benchEval(b, HashJoin) }
func BenchmarkEvalNestedLoop(b *testing.B) { benchEval(b, NestedLoop) }

func benchEval(b *testing.B, s Strategy) {
	in := relation.NewInstance()
	for i := 0; i < 1000; i++ {
		in.Insert("emp", relation.Tuple{relation.Int(i), relation.Str(fmt.Sprintf("n%d", i%100)), relation.Int(i % 10)})
		if i < 10 {
			in.Insert("dept", relation.Tuple{relation.Int(i), relation.Str(fmt.Sprintf("d%d", i))})
		}
	}
	q := MustParseQuery(`ans(n, m) :- emp(x, n, d), dept(d, m)`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(q, in, EvalOptions{Strategy: s}); err != nil {
			b.Fatal(err)
		}
	}
}
