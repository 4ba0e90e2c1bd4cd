package cq

import "testing"

func TestDependsOn(t *testing.T) {
	// At node B: incoming rule (A imports from B), outgoing rule (B imports
	// from C). The incoming rule depends on the outgoing rule iff the
	// outgoing head writes a relation the incoming body reads.
	in := MustParseRule("in1", `A.p(x) <- B.q(x, y)`)
	out1 := MustParseRule("out1", `B.q(x, "c") <- C.r(x)`)
	out2 := MustParseRule("out2", `B.z(x) <- C.r(x)`)
	if !DependsOn(in, out1) {
		t.Error("in1 must depend on out1 (head q feeds body q)")
	}
	if DependsOn(in, out2) {
		t.Error("in1 must not depend on out2 (head z unrelated)")
	}
}

func TestClosure(t *testing.T) {
	out1 := MustParseRule("o1", `B.q(x) <- C.r(x)`)
	out2 := MustParseRule("o2", `B.z(x) <- C.r(x)`)
	rel := Closure([]string{"q"}, []*Rule{out1, out2})
	if len(rel) != 1 || rel[0].ID != "o1" {
		t.Errorf("Closure = %v", rel)
	}
	if got := Closure([]string{"nope"}, []*Rule{out1, out2}); len(got) != 0 {
		t.Errorf("Closure(nope) = %v", got)
	}
}
