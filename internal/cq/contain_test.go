package cq

import "testing"

func TestContainsBasic(t *testing.T) {
	// q2 (path of length 2 with endpoint projection) is contained in q1
	// (any edge pair): classic example where q1 has fewer constraints.
	q1 := MustParseQuery(`ans(x) :- edge(x, y)`)
	q2 := MustParseQuery(`ans(x) :- edge(x, y), edge(y, z)`)
	ok, err := Contains(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("edge(x,y) should contain edge(x,y),edge(y,z)")
	}
	ok, err = Contains(q2, q1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("containment should not hold in the other direction")
	}
}

func TestContainsIdentical(t *testing.T) {
	q := MustParseQuery(`ans(x, y) :- r(x, y), s(y)`)
	ok, err := Contains(q, q)
	if err != nil || !ok {
		t.Errorf("query must contain itself: %v %v", ok, err)
	}
	eq, err := Equivalent(q, q)
	if err != nil || !eq {
		t.Errorf("query must be equivalent to itself: %v %v", eq, err)
	}
}

func TestContainsRenamedVariables(t *testing.T) {
	q1 := MustParseQuery(`ans(a, b) :- r(a, b)`)
	q2 := MustParseQuery(`ans(x, y) :- r(x, y)`)
	eq, err := Equivalent(q1, q2)
	if err != nil || !eq {
		t.Errorf("alpha-renamed queries must be equivalent: %v %v", eq, err)
	}
}

func TestContainsWithConstants(t *testing.T) {
	q1 := MustParseQuery(`ans(x) :- r(x, y)`)
	q2 := MustParseQuery(`ans(x) :- r(x, 5)`)
	ok, err := Contains(q1, q2)
	if err != nil || !ok {
		t.Errorf("generalisation must contain specialisation: %v %v", ok, err)
	}
	ok, err = Contains(q2, q1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("specialisation must not contain generalisation")
	}
}

func TestContainsDifferentArity(t *testing.T) {
	q1 := MustParseQuery(`ans(x) :- r(x, y)`)
	q2 := MustParseQuery(`ans(x, y) :- r(x, y)`)
	ok, err := Contains(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("different head arities can never be contained")
	}
}

func TestContainsRedundantAtom(t *testing.T) {
	// A duplicated atom changes nothing: equivalence must hold.
	q1 := MustParseQuery(`ans(x) :- r(x, y)`)
	q2 := MustParseQuery(`ans(x) :- r(x, y), r(x, w)`)
	eq, err := Equivalent(q1, q2)
	if err != nil || !eq {
		t.Errorf("redundant-atom queries must be equivalent: %v %v", eq, err)
	}
}

func TestContainsComparisonsUnsupported(t *testing.T) {
	q1 := MustParseQuery(`ans(x) :- r(x, y), x > 1`)
	q2 := MustParseQuery(`ans(x) :- r(x, y)`)
	if _, err := Contains(q1, q2); err == nil {
		t.Error("containment with comparisons should be rejected")
	}
}
