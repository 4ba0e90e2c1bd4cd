package relation

import (
	"math"
	"testing"
)

// hashValues spans every kind, with the values where Equal and == part:
// both zeros and two NaN bit patterns.
var hashValues = []Value{
	Null(""), Null("a"), Bool(false), Bool(true), Int(0), Int(1), Int(-1),
	Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
	Float(math.Float64frombits(0x7ff8000000000000)), Float(1), Str(""), Str("a"), Str("a\x00"),
}

// TestHashAgreesWithEqual: equal values and tuples hash alike, and the
// values this table tells apart by Equal hash apart too (a collision would
// be harmless, but here it would mean a kind or a payload is not mixed in).
func TestHashAgreesWithEqual(t *testing.T) {
	for _, v := range hashValues {
		for _, w := range hashValues {
			same := v.Hash(0) == w.Hash(0)
			if v.Equal(w) != same {
				t.Errorf("%v vs %v: Equal %v, hashes equal %v", v, w, v.Equal(w), same)
			}
		}
	}
	nan := Float(math.NaN())
	if (Tuple{nan, Str("a")}).Hash() != (Tuple{nan, Str("a")}).Hash() {
		t.Error("a tuple holding NaN hashes apart from its copy")
	}
	if (Tuple{Int(1), Int(2)}).Hash() == (Tuple{Int(2), Int(1)}).Hash() {
		t.Error("the hash ignores the order of a tuple's values")
	}
}

// TestTupleSet: members are kept once under Equal, in insertion order, over
// growth past the initial slots, and agree with the keys Tuple.Key encodes.
func TestTupleSet(t *testing.T) {
	var s TupleSet
	keys := make(map[string]bool)
	for i := 0; i < 3; i++ {
		for _, v := range hashValues {
			for _, w := range hashValues {
				tu := Tuple{v, w}
				k := tu.Key()
				if added := s.Add(tu); added == keys[k] {
					t.Fatalf("Add(%v) = %v, with an equal key added before: %v", tu, added, keys[k])
				}
				keys[k] = true
			}
		}
	}
	if len(s.Tuples) != len(hashValues)*len(hashValues) {
		t.Fatalf("%d members, want %d", len(s.Tuples), len(hashValues)*len(hashValues))
	}
	if !s.Tuples[0].Equal(Tuple{hashValues[0], hashValues[0]}) || !s.Tuples[1].Equal(Tuple{hashValues[0], hashValues[1]}) {
		t.Fatalf("members out of insertion order: %v", s.Tuples[:2])
	}
}
