package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// snapshotEvalTemplates are the rule shapes the snapshot-vs-reference property
// runs: copy, projection with an existential head, self-join, constant
// pushdown (ScanEq), and a join whose first atom is constant-restricted.
// All are incoming links of node "exp" (Source == Self), as exportSince
// evaluates them.
var snapshotEvalTemplates = []string{
	`imp.out(x, y) <- exp.data(x, y)`,
	`imp.out(x, z) <- exp.data(x, y)`,
	`imp.out(x, z) <- exp.data(x, y), exp.data(y, z)`,
	`imp.big(x, y) <- exp.big(x, y, 7)`,
	`imp.out(x, z) <- exp.big(x, y, 7), exp.data(y, z)`,
}

// TestSessionSnapshotBindingsMatchSerial is the write-path evaluation
// property: evaluating a session's incoming link over its pinned snapshot
// view (hash joins, index-probe joins and secondary-view ScanEq pushdown)
// yields exactly the bindings the nested-loop reference strategy finds over a
// relation.Instance copy of the same data, across randomized rules, data,
// and the semi-naive delta entry point.
func TestSessionSnapshotBindingsMatchSerial(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			ruleText := snapshotEvalTemplates[rnd.Intn(len(snapshotEvalTemplates))]
			rule, err := cq.ParseRule("r1", ruleText)
			if err != nil {
				t.Fatal(err)
			}

			db := storage.MustOpenMem()
			defer db.Close()
			defs := []*relation.RelDef{
				{Name: "data", Attrs: []relation.Attr{
					{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
				}},
				{Name: "big", Attrs: []relation.Attr{
					{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
					{Name: "c", Type: relation.TInt},
				}},
			}
			for _, def := range defs {
				if err := db.DefineRelation(def); err != nil {
					t.Fatal(err)
				}
			}
			// Small domain so joins and the constant (7) actually match.
			var dataTuples []relation.Tuple
			for i := 0; i < 300; i++ {
				dataTuples = append(dataTuples, relation.Tuple{
					relation.Int(rnd.Intn(24)), relation.Int(rnd.Intn(24)),
				})
			}
			if _, err := db.InsertMany("data", dataTuples); err != nil {
				t.Fatal(err)
			}
			var bigTuples []relation.Tuple
			for i := 0; i < 300; i++ {
				bigTuples = append(bigTuples, relation.Tuple{
					relation.Int(rnd.Intn(24)), relation.Int(rnd.Intn(24)),
					relation.Int(rnd.Intn(12)),
				})
			}
			if _, err := db.InsertMany("big", bigTuples); err != nil {
				t.Fatal(err)
			}

			// The node evaluates over its session's pinned snapshot; the
			// reference runs nested loops over a plain instance of the data,
			// sharing no join or access-path code with it.
			n, err := NewNode(Config{Self: "exp", Wrapper: NewStoreWrapper(db)})
			if err != nil {
				t.Fatal(err)
			}
			v := n.sessionView(n.newSession("s1", msg.KindUpdate, "exp"))
			in := db.Instance()
			ref := n.chaseOpts()
			ref.Eval = cq.EvalOptions{Strategy: cq.NestedLoop}

			want, err := chase.Bindings(rule, in, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := chase.Bindings(rule, v, n.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			mustEqualTuples(t, "full evaluation", want, got)

			// Delta entry point: re-evaluate semi-naively over a random
			// subset of one body relation, as the in-session and
			// cross-session incremental steps do.
			deltaRel := "data"
			pool := dataTuples
			if rnd.Intn(2) == 0 && ruleText != snapshotEvalTemplates[0] {
				deltaRel, pool = "big", bigTuples
			}
			var delta []relation.Tuple
			for _, tup := range pool {
				if rnd.Intn(4) == 0 {
					delta = append(delta, tup)
				}
			}
			wantD, err := chase.BindingsDelta(rule, in, deltaRel, delta, ref)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := chase.BindingsDelta(rule, v, deltaRel, delta, n.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			mustEqualTuples(t, "delta evaluation", wantD, gotD)
		})
	}
}

// mustEqualTuples compares two binding sets (the reference strategy
// enumerates in its own order).
func mustEqualTuples(t *testing.T, what string, want, got []relation.Tuple) {
	t.Helper()
	wk, gk := make([]string, len(want)), make([]string, len(got))
	for i := range want {
		wk[i] = want[i].Key()
	}
	for i := range got {
		gk[i] = got[i].Key()
	}
	sort.Strings(wk)
	sort.Strings(gk)
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d bindings by nested loop vs %d over the snapshot", what, len(wk), len(gk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: binding %d differs: nested loop %q vs snapshot %q", what, i, wk[i], gk[i])
		}
	}
}

// TestSessionViewRepinsAfterInsert asserts the re-pin contract: staged
// tuples are read from the overlay over an unchanged pin; the flush that
// lands them in the LDB advances the storage LSN, so the next sessionView
// call pins a fresh snapshot that observes the session's own writes; with no
// intervening commit the pin is reused.
func TestSessionViewRepinsAfterInsert(t *testing.T) {
	db := storage.MustOpenMem()
	defer db.Close()
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Self: "exp", Wrapper: NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	s := n.newSession("s1", msg.KindUpdate, "exp")
	v1 := n.sessionView(s)
	if v1.snap == nil {
		t.Fatal("no snapshot pinned")
	}
	if v2 := n.sessionView(s); v2.snap != v1.snap {
		t.Fatal("pin not reused with no intervening commit")
	}
	tup := relation.Tuple{relation.Int(1), relation.Int(2)}
	if fresh, err := v1.stage("data", []relation.Tuple{tup}, nil); err != nil || len(fresh) != 1 {
		t.Fatalf("stage: fresh=%v err=%v", fresh, err)
	}
	seen := 0
	v2 := n.sessionView(s)
	v2.Scan("data", func(relation.Tuple) bool { seen++; return true })
	if v2.snap != v1.snap || seen != 1 || db.Count("data") != 0 {
		t.Fatalf("staged tuple: pin reused=%v, view sees %d, LDB holds %d; want true, 1, 0",
			v2.snap == v1.snap, seen, db.Count("data"))
	}
	n.commitStaged(&Result{}, s)
	v3 := n.sessionView(s)
	if v3.snap == v1.snap {
		t.Fatal("pin not refreshed after an LDB insert")
	}
	if !v3.snap.Has("data", tup) {
		t.Fatal("re-pinned snapshot misses the session's own write")
	}
	n.finalize(s, true, &Result{})
	if s.pinned != nil {
		t.Fatal("finalize did not release the pinned snapshot")
	}
}

// TestSessionViewRangeMatchesNestedLoop is the range differential over the
// session view: snapshot ∪ overlay, the overlay holding both new tuples and
// copies of snapshot tuples (which the view shadows). Random bodies with
// constant comparisons of every kind — float and null constants, duplicate
// and contradictory bounds included — over int, string, bool and float
// columns holding NaN and -0.0 answer exactly as the nested loop does over a
// relation.Instance of the same union, which pushes no range; and the range
// walks happen.
func TestSessionViewRangeMatchesNestedLoop(t *testing.T) {
	defs := []*relation.RelDef{
		{Name: "q", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TString}}},
		{Name: "r", Attrs: []relation.Attr{
			{Name: "a", Type: relation.TBool}, {Name: "b", Type: relation.TFloat}, {Name: "c", Type: relation.TInt},
		}},
	}
	value := func(rnd *rand.Rand, typ relation.Type) relation.Value {
		if rnd.Intn(8) == 0 {
			return relation.Null([]string{"n1", "n2"}[rnd.Intn(2)])
		}
		switch typ {
		case relation.TInt:
			return relation.Int(rnd.Intn(9) - 2)
		case relation.TString:
			return relation.Str([]string{"", "a", "a\x00", "b"}[rnd.Intn(4)])
		case relation.TBool:
			return relation.Bool(rnd.Intn(2) == 0)
		default:
			return relation.Float([]float64{math.Copysign(0, -1), 0, math.NaN(), 1.5}[rnd.Intn(4)])
		}
	}
	types := []relation.Type{relation.TInt, relation.TString, relation.TBool, relation.TFloat}
	ops := []cq.CmpOp{cq.OpEq, cq.OpNe, cq.OpLt, cq.OpLe, cq.OpGt, cq.OpGe}
	qa := cq.NewAtom("q", cq.V("x"), cq.V("y"))
	ra := cq.NewAtom("r", cq.V("z"), cq.V("w"), cq.V("x"))
	bodies := [][]cq.Atom{{qa}, {ra}, {qa, ra}, {ra, qa}}
	walks := 0
	for seed := int64(0); seed < 300; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := storage.MustOpenMem()
		overlay := relation.NewSet()
		in := relation.NewInstance()
		for _, def := range defs {
			if err := db.DefineRelation(def); err != nil {
				t.Fatal(err)
			}
			var stored []relation.Tuple
			for i, n := 0, rnd.Intn(30); i < n; i++ {
				tu := make(relation.Tuple, def.Arity())
				for j, a := range def.Attrs {
					tu[j] = value(rnd, a.Type)
				}
				in.Insert(def.Name, tu)
				switch rnd.Intn(3) {
				case 0:
					overlay.Insert(def.Name, tu.Key(), tu)
				case 1:
					overlay.Insert(def.Name, tu.Key(), tu) // shadowed by the snapshot
					fallthrough
				default:
					stored = append(stored, tu)
				}
			}
			if _, err := db.InsertMany(def.Name, stored); err != nil {
				t.Fatal(err)
			}
		}
		v := view{snap: db.Snapshot(), overlay: overlay}
		db.Close()

		// The walk itself: every tuple the range holds, once, shadowed
		// overlay copies included.
		for _, def := range defs {
			pos := rnd.Intn(def.Arity())
			c := value(rnd, []relation.Type{relation.TInt, relation.TString, relation.TBool}[rnd.Intn(3)])
			if c.IsNull() {
				continue
			}
			var want, got []relation.Tuple
			for _, tu := range in.Tuples(def.Name) {
				if tu[pos].Compare(c) >= 0 {
					want = append(want, tu)
				}
			}
			v.ScanRange(def.Name, pos, relation.Range{}.AtLeast(c), func(tu relation.Tuple) bool {
				got = append(got, tu)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s at %d from %v walked %d tuples, want %d", seed, def.Name, pos, c, len(got), len(want))
			}
			mustEqualTuples(t, fmt.Sprintf("seed %d: walk of %s at %d from %v", seed, def.Name, pos, c), want, got)
		}

		q := &cq.Query{Head: cq.NewAtom("ans", cq.V("x")), Body: bodies[rnd.Intn(len(bodies))]}
		vars := q.BodyVars()
		for i, n := 0, rnd.Intn(4)+1; i < n; i++ {
			c := cq.Comparison{Op: ops[rnd.Intn(len(ops))], L: cq.V(vars[rnd.Intn(len(vars))]), R: cq.C(value(rnd, types[rnd.Intn(len(types))]))}
			if rnd.Intn(3) == 0 {
				c.L, c.R = c.R, c.L
			}
			q.Cmps = append(q.Cmps, c)
			if rnd.Intn(5) == 0 { // a duplicate
				q.Cmps = append(q.Cmps, c)
			}
		}
		want, err := cq.Eval(q, in, cq.EvalOptions{Strategy: cq.NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		spy := &rangeSpy{view: v}
		got, err := cq.Eval(q, spy, cq.EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualTuples(t, fmt.Sprintf("seed %d: %s", seed, q), want, got)
		walks += spy.walks
	}
	if walks < 100 {
		t.Fatalf("weak generator: %d range walks", walks)
	}
}

// rangeSpy is the session view counting its range walks.
type rangeSpy struct {
	view
	walks int
}

func (s *rangeSpy) ScanRange(rel string, pos int, r relation.Range, fn func(relation.Tuple) bool) {
	s.walks++
	s.view.ScanRange(rel, pos, r, fn)
}
