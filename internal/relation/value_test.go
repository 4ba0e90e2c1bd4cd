package relation

import (
	"math"
	"testing"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Int64(42), KindInt},
		{Int(-7), KindInt},
		{Float(3.14), KindFloat},
		{Str("hello"), KindString},
		{Bool(true), KindBool},
		{Null("n1"), KindNull},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("value %v: kind = %v, want %v", c.v, c.v.Kind, c.kind)
		}
	}
}

func TestValueEquality(t *testing.T) {
	if !Int(5).Equal(Int64(5)) {
		t.Error("Int(5) != Int64(5)")
	}
	if Int(5).Equal(Float(5)) {
		t.Error("no numeric coercion expected: Int(5) == Float(5)")
	}
	if !Null("a").Equal(Null("a")) {
		t.Error("same-label nulls must be equal")
	}
	if Null("a").Equal(Null("b")) {
		t.Error("distinct-label nulls must differ")
	}
	if Str("x").Equal(Null("x")) {
		t.Error("string and null with same payload must differ")
	}
}

func TestValueCompareWithinKind(t *testing.T) {
	ordered := []Value{
		Null(""), Null("a"), Null("b"),
		Bool(false), Bool(true),
		Int(-10), Int(0), Int(99),
		Float(math.Inf(-1)), Float(-1.5), Float(0), Float(2.5), Float(math.Inf(1)),
		Str(""), Str("a"), Str("ab"), Str("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":      Int(42),
		`"hi"`:    Str("hi"),
		"true":    Bool(true),
		"⊥n1:3":   Null("n1:3"),
		"⊥":       Null(""),
		"1.5":     Float(1.5),
		"-0.0001": Float(-0.0001),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestTypeAdmits(t *testing.T) {
	if !TInt.Admits(Int(1)) || TInt.Admits(Str("x")) {
		t.Error("TInt admission wrong")
	}
	if !TString.Admits(Str("x")) || TString.Admits(Bool(true)) {
		t.Error("TString admission wrong")
	}
	for _, typ := range []Type{TInt, TFloat, TString, TBool} {
		if !typ.Admits(Null("u")) {
			t.Errorf("%v must admit marked nulls", typ)
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": TInt, "float": TFloat, "string": TString, "str": TString,
		"text": TString, "bool": TBool,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}
