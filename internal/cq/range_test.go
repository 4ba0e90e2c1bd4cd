package cq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"codb/internal/relation"
	"codb/internal/storage"
)

// rangeCounter wraps an indexed source and counts the rows it delivers and
// the range walks it is asked for.
type rangeCounter struct {
	src interface {
		Source
		EqScanner
		RangeScanner
	}
	rows, ranges int
}

func (c *rangeCounter) count(fn func(relation.Tuple) bool) func(relation.Tuple) bool {
	return func(t relation.Tuple) bool { c.rows++; return fn(t) }
}

func (c *rangeCounter) Scan(rel string, fn func(relation.Tuple) bool) {
	c.src.Scan(rel, c.count(fn))
}

func (c *rangeCounter) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	c.src.ScanEq(rel, pos, v, c.count(fn))
}

func (c *rangeCounter) ScanRange(rel string, pos int, r relation.Range, fn func(relation.Tuple) bool) {
	c.ranges++
	c.src.ScanRange(rel, pos, r, c.count(fn))
}

// rangeTypes are the attribute types the range differential draws columns
// from; rangeArity is the arity of each relation.
var (
	rangeTypes = []relation.Type{relation.TInt, relation.TString, relation.TBool, relation.TFloat}
	rangeArity = map[string]int{"p": 1, "q": 2, "r": 3}
)

// rangeValue draws a value of the given type, or a marked null. Floats
// include NaN and both zeros, strings an embedded 0x00 and the empty string.
func rangeValue(rnd *rand.Rand, typ relation.Type) relation.Value {
	if rnd.Intn(8) == 0 {
		return relation.Null([]string{"n1", "n2"}[rnd.Intn(2)])
	}
	switch typ {
	case relation.TInt:
		return relation.Int(rnd.Intn(7) - 2)
	case relation.TString:
		return relation.Str([]string{"", "a", "a\x00", "b", "bb"}[rnd.Intn(5)])
	case relation.TBool:
		return relation.Bool(rnd.Intn(2) == 0)
	default:
		return relation.Float([]float64{math.Copysign(0, -1), 0, math.NaN(), -1.5, 1, 2.5}[rnd.Intn(6)])
	}
}

// rangeData draws a schema (one type per column) and up to max tuples per
// relation. Mixed data ignores the schema: every value draws its own kind,
// which only the in-memory sources accept.
func rangeData(rnd *rand.Rand, max int, mixed bool) ([]*relation.RelDef, map[string][]relation.Tuple) {
	var defs []*relation.RelDef
	data := make(map[string][]relation.Tuple)
	for _, rel := range []string{"p", "q", "r"} {
		def := &relation.RelDef{Name: rel}
		for i := 0; i < rangeArity[rel]; i++ {
			def.Attrs = append(def.Attrs, relation.Attr{Name: fmt.Sprintf("a%d", i), Type: rangeTypes[rnd.Intn(len(rangeTypes))]})
		}
		defs = append(defs, def)
		for i, n := 0, rnd.Intn(max+1); i < n; i++ {
			t := make(relation.Tuple, len(def.Attrs))
			for j, a := range def.Attrs {
				typ := a.Type
				if mixed {
					typ = rangeTypes[rnd.Intn(len(rangeTypes))]
				}
				t[j] = rangeValue(rnd, typ)
			}
			data[rel] = append(data[rel], t)
		}
	}
	return defs, data
}

// randomRangeQuery draws a body of one to three atoms and one to five
// comparisons over its variables: all six operators, variable–constant and
// constant–variable, constants of every kind (floats and nulls included),
// some variable–variable, and on purpose duplicated and contradictory
// bounds.
func randomRangeQuery(rnd *rand.Rand) *Query {
	pool := []string{"a", "b", "c", "d"}
	rels := []string{"p", "q", "r"}
	q := &Query{Head: Atom{Rel: "ans"}}
	for i, n := 0, rnd.Intn(3)+1; i < n; i++ {
		rel := rels[rnd.Intn(len(rels))]
		a := Atom{Rel: rel, Terms: make([]Term, rangeArity[rel])}
		for j := range a.Terms {
			if rnd.Intn(8) == 0 {
				a.Terms[j] = C(rangeValue(rnd, rangeTypes[rnd.Intn(len(rangeTypes))]))
			} else {
				a.Terms[j] = V(pool[rnd.Intn(len(pool))])
			}
		}
		q.Body = append(q.Body, a)
	}
	vars := q.BodyVars()
	if len(vars) == 0 {
		q.Head.Terms = []Term{C(relation.Int(0))}
		return q
	}
	for i, n := 0, rnd.Intn(len(vars))+1; i < n; i++ {
		q.Head.Terms = append(q.Head.Terms, V(vars[rnd.Intn(len(vars))]))
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for i, n := 0, rnd.Intn(5)+1; i < n; i++ {
		c := Comparison{Op: ops[rnd.Intn(len(ops))], L: V(vars[rnd.Intn(len(vars))])}
		switch rnd.Intn(8) {
		case 0:
			c.R = V(vars[rnd.Intn(len(vars))])
		case 1: // a duplicate
			if len(q.Cmps) > 0 {
				c = q.Cmps[rnd.Intn(len(q.Cmps))]
				break
			}
			fallthrough
		default:
			c.R = C(rangeValue(rnd, rangeTypes[rnd.Intn(len(rangeTypes))]))
		}
		if rnd.Intn(3) == 0 {
			c = Comparison{Op: c.Op.flip(), L: c.R, R: c.L}
		}
		q.Cmps = append(q.Cmps, c)
		if rnd.Intn(6) == 0 && !c.R.IsVar() { // the contradiction: x > k as well as x < k
			q.Cmps = append(q.Cmps, Comparison{Op: OpGt, L: c.L, R: c.R}, Comparison{Op: OpLt, L: c.L, R: c.R})
		}
	}
	return q
}

// sameKeys compares two answer lists by tuple key — NaN is not == to itself,
// but encodes the same — as sets, or as sequences when inOrder.
func sameKeys(a, b []relation.Tuple, inOrder bool) bool {
	keys := func(ts []relation.Tuple) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.Key()
		}
		if !inOrder {
			slices.Sort(out)
		}
		return out
	}
	return slices.Equal(keys(a), keys(b))
}

// rangeAtZero reports whether the plan's only atom walks its source in key
// order: a single atom whose pushed range, if any, is at position 0 and
// which has no constant to probe instead.
func rangeAtZero(q *Query) bool {
	if len(q.Body) != 1 {
		return false
	}
	pa := compile(q.Body, q.Cmps, nil, true).atoms[0]
	return !pa.hasConst() && (pa.bound == nil || pa.bound.pos == 0)
}

// TestRangeDifferential: the hash strategy with range pushdown answers every
// random query with comparisons exactly as the nested loop does over a
// relation.Instance, which pushes no range, over a storage snapshot (typed
// columns) and a relation.Set (typed and mixed-kind columns) — and, when the
// only atom walks position 0, in the same order.
func TestRangeDifferential(t *testing.T) {
	var ranged, emptied, ordered int
	for seed := int64(0); seed < 1500; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		mixed := rnd.Intn(3) == 0
		defs, data := rangeData(rnd, 14, mixed)
		q := randomRangeQuery(rnd)
		want, err := Eval(q, toInstance(data), EvalOptions{Strategy: NestedLoop})
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}
		sources := map[string]*rangeCounter{"set": {src: toSet(data)}}
		if !mixed {
			db := storage.MustOpenMem()
			for _, def := range defs {
				if err := db.DefineRelation(def); err != nil {
					t.Fatal(err)
				}
				if _, err := db.InsertMany(def.Name, data[def.Name]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			sources["snapshot"] = &rangeCounter{src: db.Snapshot()}
			db.Close()
		}
		for name, src := range sources {
			got, err := Eval(q, src, EvalOptions{})
			if err != nil {
				t.Fatalf("seed %d: %s over the %s: %v", seed, q, name, err)
			}
			inOrder := rangeAtZero(q)
			if inOrder {
				ordered++
			}
			if !sameKeys(got, want, inOrder) {
				t.Fatalf("seed %d: %s over the %s (in order: %v)\n range:       %v\n nested loop: %v", seed, q, name, inOrder, got, want)
			}
			ranged += src.ranges
		}
		if compile(q.Body, q.Cmps, nil, true).empty {
			emptied++
		}
	}
	if ranged < 300 || emptied < 50 || ordered < 50 {
		t.Fatalf("weak generator: %d range walks, %d empty ranges, %d ordered checks", ranged, emptied, ordered)
	}
}

// TestRangePushdownTaken pins that the range is pushed, not just correct: a
// full-scan fallback would pass the differential. A 50-key window of a
// 20k-row snapshot is walked in 50 rows, whichever side the constants are
// written on; the nested loop never asks for a range.
func TestRangePushdownTaken(t *testing.T) {
	db := storage.MustOpenMem()
	defer db.Close()
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]relation.Tuple, 20000)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Int(i), relation.Int(i % 97)}
	}
	if _, err := db.InsertMany("data", rows); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	for _, text := range []string{
		`ans(k, v) :- data(k, v), k >= 7000, k < 7050`,
		`ans(k, v) :- data(k, v), 7000 <= k, 7050 > k`,
		`ans(k, v) :- data(k, v), k >= 6000, k > 6999, k <= 7100, k < 7050, k != 7003`,
	} {
		q := MustParseQuery(text)
		src := &rangeCounter{src: snap}
		got, err := Eval(q, src, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Eval(q, snap.Instance(), EvalOptions{Strategy: NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(got, want) || len(got) == 0 {
			t.Fatalf("%s = %d answers, nested loop %d", text, len(got), len(want))
		}
		if src.ranges != 1 || src.rows > 50 {
			t.Errorf("%s: %d range walks saw %d rows, want one of at most 50", text, src.ranges, src.rows)
		}

		src = &rangeCounter{src: snap}
		if _, err := Eval(q, src, EvalOptions{Strategy: NestedLoop}); err != nil {
			t.Fatal(err)
		}
		if src.ranges != 0 || src.rows != len(rows) {
			t.Errorf("%s: the nested loop made %d range walks over %d rows, want a full scan", text, src.ranges, src.rows)
		}
	}

	// Contradictory bounds read nothing; a float or null bound is not pushed.
	for text, wantRanges := range map[string]int{
		`ans(k) :- data(k, v), k > 7, k < 3`:  0,
		`ans(k) :- data(k, v), k >= 7.5`:      0,
		`ans(k) :- data(k, v), v = 3, k < 10`: 1,
	} {
		src := &rangeCounter{src: snap}
		if _, err := Eval(MustParseQuery(text), src, EvalOptions{}); err != nil {
			t.Fatal(err)
		}
		if src.ranges != wantRanges {
			t.Errorf("%s: %d range walks, want %d", text, src.ranges, wantRanges)
		}
	}
}
