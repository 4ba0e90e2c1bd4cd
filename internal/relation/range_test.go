package relation

import (
	"math"
	"testing"
)

func TestPrefixSuccessor(t *testing.T) {
	cases := map[string]string{
		"abc":             "abd",
		"ab\xff":          "ac",
		"\xff\xff":        "",
		"":                "",
		"a\xff\xff":       "b",
		string([]byte{0}): string([]byte{1}),
	}
	for in, want := range cases {
		b := []byte(in)
		if got := string(b[:incrementLast(b)]); got != want {
			t.Errorf("prefix successor of %q = %q, want %q", in, got, want)
		}
	}
}

// TestRangeBounds pins which values a range built from int, string and bool
// bounds holds, through the key interval it scans: exactly those the
// matching comparison admits within the bound's kind, and every value of a
// kind on the open side — floats (-0.0 and NaN included) and nulls too.
func TestRangeBounds(t *testing.T) {
	values := []Value{
		Null(""), Null("a"), Bool(false), Bool(true), Int(-1), Int(0), Int(1), Int(2),
		Float(math.Copysign(0, -1)), Float(0), Float(math.NaN()), Str(""), Str("a"), Str("a\x00"), Str("b"),
	}
	in := func(r Range, v Value) bool {
		from, to := r.Keys()
		k := Tuple{v, Int(7)}.Key()
		return k >= from && (to == "" || k < to)
	}
	for _, c := range []Value{Bool(true), Int(1), Str("a")} {
		for _, v := range values {
			cmp := v.Compare(c)
			for name, tc := range map[string]struct {
				r    Range
				want bool
			}{
				"point":   {Point(c), v == c},
				"atLeast": {Range{}.AtLeast(c), cmp >= 0},
				"above":   {Range{}.Above(c), cmp > 0},
				"atMost":  {Range{}.AtMost(c), cmp <= 0},
				"below":   {Range{}.Below(c), cmp < 0},
			} {
				if got := in(tc.r, v); got != tc.want {
					t.Errorf("%s(%v) holds %v: %v, want %v", name, c, v, got, tc.want)
				}
			}
		}
	}
	if !(Range{}).AtLeast(Int(2)).Below(Int(2)).Empty() || !Point(Int(1)).Above(Int(1)).Empty() {
		t.Error("contradictory bounds make a non-empty range")
	}
	if r := (Range{}).AtLeast(Int(0)).AtLeast(Int(1)).AtMost(Int(3)).Below(Int(2)); r != Point(Int(1)) {
		t.Errorf("merged bounds = %v, want the point of 1", r)
	}
}
