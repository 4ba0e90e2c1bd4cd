package core

import (
	"fmt"
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
	if fresh, err := v1.stage("data", []relation.Tuple{tup}); err != nil || len(fresh) != 1 {
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
