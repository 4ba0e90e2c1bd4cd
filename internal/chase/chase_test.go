package chase

import (
	"slices"
	"strings"
	"testing"

	"codb/internal/cq"
	"codb/internal/relation"
)

func mustApplier(t *testing.T, rule *cq.Rule, opts Options) *Applier {
	t.Helper()
	a, err := NewApplier(rule, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCopyRuleNoExistentials(t *testing.T) {
	r := cq.MustParseRule("r1", `A.p(x, y) <- B.q(x, y)`)
	a := mustApplier(t, r, Options{})
	facts := a.Facts([]relation.Tuple{
		{relation.Int(1), relation.Str("a")},
		{relation.Int(2), relation.Str("b")},
	})
	if len(facts) != 2 {
		t.Fatalf("facts = %v", facts)
	}
	if facts[0].Rel != "p" || !facts[0].Tuple.Equal(relation.Tuple{relation.Int(1), relation.Str("a")}) {
		t.Errorf("fact 0 = %v", facts[0])
	}
}

// TestIdentity: Identity holds exactly when Facts would make every binding
// into a fact equal to it, and then it does.
func TestIdentity(t *testing.T) {
	pair := []relation.Tuple{{relation.Int(1), relation.Int(2)}, {relation.Int(3), relation.Int(4)}}
	for _, c := range []struct {
		rule     string
		bindings []relation.Tuple
		want     bool
	}{
		{`A.p(x, y) <- B.q(x, y)`, pair, true},
		{`A.p(y, x) <- B.q(x, y)`, pair, true}, // the frontier is in head order
		{`A.p(x, y) <- B.q(x, z), B.s(z, y)`, pair, true},
		{`A.p(x) <- B.q(x, y)`, []relation.Tuple{{relation.Int(1)}}, true},
		{`A.p(x, y) <- B.q(x, y)`, nil, true},
		{`A.p(x, y) <- B.q(x, y)`, append(pair, relation.Tuple{relation.Int(5)}), false},
		{`A.p(x, y) <- B.q(x, y)`, append(pair, relation.Tuple{relation.Int(5), relation.Int(6), relation.Int(7)}), false},
		{`A.p(x, x) <- B.q(x)`, []relation.Tuple{{relation.Int(1)}}, false},
		{`A.p(x, 7) <- B.q(x)`, []relation.Tuple{{relation.Int(1)}}, false},
		{`A.p(x, z) <- B.q(x)`, []relation.Tuple{{relation.Int(1)}}, false},
		{`A.p(x, y), A.s(x) <- B.q(x, y)`, pair, false},
	} {
		a := mustApplier(t, cq.MustParseRule("r1", c.rule), Options{})
		if got := a.Identity(c.bindings); got != c.want {
			t.Errorf("%s over %v: Identity = %v, want %v", c.rule, c.bindings, got, c.want)
		}
		if !c.want {
			continue
		}
		facts := a.Facts(c.bindings)
		if len(facts) != len(c.bindings) {
			t.Fatalf("%s: %d facts for %d bindings", c.rule, len(facts), len(c.bindings))
		}
		for i, f := range facts {
			if f.Rel != "p" || !f.Tuple.Equal(c.bindings[i]) {
				t.Errorf("%s: fact %d = %v, want p%v", c.rule, i, f, c.bindings[i])
			}
		}
	}
}

func TestExistentialMinting(t *testing.T) {
	r := cq.MustParseRule("r1", `A.p(x, z) <- B.q(x)`)
	a := mustApplier(t, r, Options{})
	facts := a.Facts([]relation.Tuple{{relation.Int(1)}, {relation.Int(2)}})
	if len(facts) != 2 {
		t.Fatalf("facts = %v", facts)
	}
	z1, z2 := facts[0].Tuple[1], facts[1].Tuple[1]
	if !z1.IsNull() || !z2.IsNull() {
		t.Fatalf("existential positions not nulls: %v %v", z1, z2)
	}
	if z1 == z2 {
		t.Error("distinct frontier bindings must mint distinct nulls")
	}
}

func TestMintingIsDeterministicAcrossAppliers(t *testing.T) {
	r1 := cq.MustParseRule("r1", `A.p(x, z) <- B.q(x)`)
	r2 := cq.MustParseRule("r1", `A.p(x, z) <- B.q(x)`)
	a1 := mustApplier(t, r1, Options{})
	a2 := mustApplier(t, r2, Options{})
	b := []relation.Tuple{{relation.Int(7)}}
	f1 := a1.Facts(b)
	f2 := a2.Facts(b)
	if f1[0].Tuple[1] != f2[0].Tuple[1] {
		t.Errorf("independent appliers minted different nulls: %v vs %v", f1[0].Tuple[1], f2[0].Tuple[1])
	}
	// Different rule ID ⇒ different null.
	r3 := cq.MustParseRule("r2", `A.p(x, z) <- B.q(x)`)
	a3 := mustApplier(t, r3, Options{})
	if a3.Facts(b)[0].Tuple[1] == f1[0].Tuple[1] {
		t.Error("different rules must mint different nulls")
	}
}

func TestMemoReturnsSameFacts(t *testing.T) {
	r := cq.MustParseRule("r1", `A.p(x, z) <- B.q(x)`)
	a := mustApplier(t, r, Options{})
	b := relation.Tuple{relation.Int(1)}
	f1 := a.Facts([]relation.Tuple{b})
	f2 := a.Facts([]relation.Tuple{b})
	if f1[0].Tuple[1] != f2[0].Tuple[1] {
		t.Error("re-delivery minted a new null")
	}
}

func TestSharedExistentialAcrossHeadAtoms(t *testing.T) {
	r := cq.MustParseRule("r1", `A.boss(x, z), A.emp(z) <- B.worker(x)`)
	a := mustApplier(t, r, Options{})
	facts := a.Facts([]relation.Tuple{{relation.Int(1)}})
	if len(facts) != 2 {
		t.Fatalf("facts = %v", facts)
	}
	if facts[0].Tuple[1] != facts[1].Tuple[0] {
		t.Error("existential must be shared across head atoms of one firing")
	}
}

func TestMalformedBindingSkipped(t *testing.T) {
	r := cq.MustParseRule("r1", `A.p(x, y) <- B.q(x, y)`)
	a := mustApplier(t, r, Options{})
	facts := a.Facts([]relation.Tuple{{relation.Int(1)}}) // arity 1, frontier needs 2
	if len(facts) != 0 {
		t.Errorf("malformed binding: facts=%v", facts)
	}
}

func TestBindingsAndApply(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("q", relation.Tuple{relation.Int(1), relation.Str("keep")})
	in.Insert("q", relation.Tuple{relation.Int(2), relation.Str("drop")})
	r := cq.MustParseRule("r1", `A.p(x) <- B.q(x, s), s = "keep"`)
	a := mustApplier(t, r, Options{})
	bindings, err := Bindings(r, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 || bindings[0][0] != relation.Int(1) {
		t.Errorf("bindings = %v", bindings)
	}
	facts, err := Apply(r, in, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 || facts[0].String() != "p(1)" {
		t.Errorf("facts = %v", facts)
	}
}

func TestBindingsDelta(t *testing.T) {
	in := relation.NewInstance()
	in.Insert("q", relation.Tuple{relation.Int(1)})
	in.Insert("q", relation.Tuple{relation.Int(2)})
	r := cq.MustParseRule("r1", `A.p(x) <- B.q(x)`)
	delta := []relation.Tuple{{relation.Int(2)}}
	bindings, err := BindingsDelta(r, in, "q", delta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 || bindings[0][0] != relation.Int(2) {
		t.Errorf("delta bindings = %v", bindings)
	}
}

// TestBindingsTransferCertainOnly: a rule ships only the certain answers of
// its body, on every evaluation path. A null may join or be projected away
// inside the body, but never reaches the frontier.
func TestBindingsTransferCertainOnly(t *testing.T) {
	null := relation.Null("n")
	cases := []struct {
		name string
		rule string
		src  map[string][]relation.Tuple
		want []relation.Tuple
	}{
		{
			name: "null in frontier",
			rule: `A.b(x, y) <- B.b(x, y)`,
			src:  map[string][]relation.Tuple{"b": {{relation.Int(1), null}}},
		},
		{
			name: "null projected away",
			rule: `A.u(x) <- B.b(x, y)`,
			src:  map[string][]relation.Tuple{"b": {{relation.Int(1), null}}},
			want: []relation.Tuple{{relation.Int(1)}},
		},
		{
			name: "join on null",
			rule: `A.t(x) <- B.b(x, y), B.c(y)`,
			src:  map[string][]relation.Tuple{"b": {{relation.Int(1), null}}, "c": {{null}}},
			want: []relation.Tuple{{relation.Int(1)}},
		},
	}
	for _, tc := range cases {
		r := cq.MustParseRule("r1", tc.rule)
		in := relation.NewInstance()
		for rel, ts := range tc.src {
			for _, tu := range ts {
				in.Insert(rel, tu)
			}
		}
		delta := tc.src["b"]
		evals := map[string]func() ([]relation.Tuple, error){
			"Bindings":         func() ([]relation.Tuple, error) { return Bindings(r, in, Options{}) },
			"BindingsDelta":    func() ([]relation.Tuple, error) { return BindingsDelta(r, in, "b", delta, Options{}) },
			"BindingsSetDelta": func() ([]relation.Tuple, error) { return BindingsSetDelta(r, in, "b", delta, Options{}) },
		}
		for name, eval := range evals {
			got, err := eval()
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, name, err)
			}
			if !slices.EqualFunc(got, tc.want, relation.Tuple.Equal) {
				t.Errorf("%s/%s: bindings = %v, want %v", tc.name, name, got, tc.want)
			}
		}
	}
}

func TestConstantInHead(t *testing.T) {
	r := cq.MustParseRule("r1", `A.p(x, "fixed") <- B.q(x)`)
	a := mustApplier(t, r, Options{})
	facts := a.Facts([]relation.Tuple{{relation.Int(1)}})
	if facts[0].Tuple[1] != relation.Str("fixed") {
		t.Errorf("facts = %v", facts)
	}
}

func TestFactString(t *testing.T) {
	f := Fact{Rel: "p", Tuple: relation.Tuple{relation.Int(1), relation.Null("ab")}}
	if !strings.HasPrefix(f.String(), "p(1, ") {
		t.Errorf("String = %q", f.String())
	}
}
