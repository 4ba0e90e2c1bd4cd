package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSetMatchesInstance drives a Set and the map-and-sort Instance it
// replaced on the session data path with the same random inserts — mixed
// arities, nulls, duplicates — and compares, at random points so that
// secondary trees are both built late and maintained afterwards: Insert's
// verdict, Len, HasKey, the scan order, and every equality probe and range
// scan against a filtered scan.
func TestSetMatchesInstance(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		set, inst := NewSet(), NewInstance()
		value := func() Value {
			if rnd.Intn(6) == 0 {
				return Null([]string{"a", "b"}[rnd.Intn(2)])
			}
			return Int(rnd.Intn(5))
		}
		check := func() {
			want := inst.Tuples("r")
			if set.Len("r") != len(want) {
				t.Fatalf("seed %d: Len = %d, want %d", seed, set.Len("r"), len(want))
			}
			i := 0
			set.ScanKeys("r", func(key string, tu Tuple) bool {
				if !tu.Equal(want[i]) || key != want[i].Key() {
					t.Fatalf("seed %d: scan position %d = %v (key %q), want %v", seed, i, tu, key, want[i])
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("seed %d: scan delivered %d tuples, want %d", seed, i, len(want))
			}
			for pos := 0; pos < 3; pos++ {
				v := value()
				var filtered []Tuple
				for _, tu := range want {
					if pos < len(tu) && tu[pos] == v {
						filtered = append(filtered, tu)
					}
				}
				j := 0
				set.ScanRangeKeys("r", pos, Point(v), func(key string, tu Tuple) bool {
					if j >= len(filtered) || !tu.Equal(filtered[j]) || key != tu.Key() {
						t.Fatalf("seed %d: ScanEq(%d, %v) position %d = %v, want one of %v in order", seed, pos, v, j, tu, filtered)
					}
					j++
					return true
				})
				if j != len(filtered) {
					t.Fatalf("seed %d: ScanEq(%d, %v) delivered %d tuples, want %d", seed, pos, v, j, len(filtered))
				}
				checkRange(t, set, want, pos, rnd)
			}
		}
		for i, n := 0, rnd.Intn(200); i < n; i++ {
			tu := make(Tuple, rnd.Intn(3)+1)
			for j := range tu {
				tu[j] = value()
			}
			if got, want := set.Insert("r", tu.Key(), tu), inst.Insert("r", tu); got != want {
				t.Fatalf("seed %d: Insert(%v) = %v, want %v", seed, tu, got, want)
			}
			if !set.HasKey("r", tu.Key()) {
				t.Fatalf("seed %d: %v missing after insert", seed, tu)
			}
			if rnd.Intn(40) == 0 {
				check()
			}
		}
		check()
		if set.HasKey("r", Tuple{Int(99)}.Key()) || set.HasKey("nope", Tuple{Int(0)}.Key()) || set.Len("nope") != 0 {
			t.Fatalf("seed %d: absent tuple or relation reported present", seed)
		}
		set.ScanEq("nope", 0, Int(0), func(Tuple) bool { t.Fatal("scan of an absent relation"); return false })
	}
}

// TestSetScanStops: a callback returning false ends Scan and ScanEq.
func TestSetScanStops(t *testing.T) {
	s := NewSet()
	for i := 0; i < 200; i++ {
		tu := Tuple{Int(i % 2), Int(i)}
		s.Insert("r", tu.Key(), tu)
	}
	n := 0
	s.Scan("r", func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Scan visited %d tuples after being stopped at 3", n)
	}
	n = 0
	s.ScanEq("r", 0, Int(1), func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("ScanEq visited %d tuples after being stopped at 3", n)
	}
}

func TestUnion(t *testing.T) {
	row := func(vs ...int) Tuple {
		tu := make(Tuple, len(vs))
		for i, v := range vs {
			tu[i] = Int(v)
		}
		return tu
	}
	var u Union
	u.Add(nil)
	if u.Tuples != nil {
		t.Fatalf("empty union = %v", u.Tuples)
	}
	first := []Tuple{row(1), row(2)}
	u.Add(first)
	if len(u.Tuples) != 2 || &u.Tuples[0] != &first[0] {
		t.Fatal("a single batch must be adopted as it is")
	}
	u.Add([]Tuple{row(2), row(3)})
	u.Add([]Tuple{row(3), row(1), row(4)})
	want := []Tuple{row(1), row(2), row(3), row(4)}
	if len(u.Tuples) != len(want) {
		t.Fatalf("union = %v, want %v", u.Tuples, want)
	}
	for i := range want {
		if !u.Tuples[i].Equal(want[i]) {
			t.Fatalf("union = %v, want %v", u.Tuples, want)
		}
	}
	if len(first) != 2 || cap(first) < 2 || !first[1].Equal(row(2)) {
		t.Fatalf("merging wrote into the caller's first batch: %v", first)
	}
}

// TestKeyAllocatesOnce: a key is one allocation (the string), not one per
// growth step of an unsized buffer; long keys still encode correctly.
func TestKeyAllocatesOnce(t *testing.T) {
	tu := Tuple{Int(42), Int(-7)}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = tu.Key() }); n != 1 {
		t.Errorf("Key() of a two-int tuple makes %.0f allocations, want 1", n)
	}
	long := Tuple{Str("a string well past the sixty-four bytes of the stack buffer, with a \x00 to escape"), Int(1), Null("n")}
	if long.Key() != string(EncodeTuple(nil, long)) || sink != string(EncodeTuple(nil, tu)) {
		t.Error("Key() differs from EncodeTuple")
	}
}

// TestSetProbesFirstPositionOnPrimary: an equality probe of position 0 — a
// query origin's self-join — walks the primary tree, so it builds and
// maintains no secondary tree; other positions still get one.
func TestSetProbesFirstPositionOnPrimary(t *testing.T) {
	s := NewSet()
	for i := 0; i < 10; i++ {
		tu := Tuple{Int(i % 3), Int(i)}
		s.Insert("r", tu.Key(), tu)
	}
	n := 0
	s.ScanEq("r", 0, Int(1), func(Tuple) bool { n++; return true })
	if n != 3 || len(s.rels["r"].second) != 0 {
		t.Fatalf("position-0 probe matched %d tuples and left %d secondary trees, want 3 and 0", n, len(s.rels["r"].second))
	}
	s.ScanEq("r", 1, Int(4), func(Tuple) bool { n++; return true })
	if n != 4 || len(s.rels["r"].second) != 1 {
		t.Fatalf("position-1 probe: %d matches in all, %d secondary trees; want 4 and 1", n, len(s.rels["r"].second))
	}
}

// checkRange compares one random range scan of set at pos with the tuples of
// want (key order) whose value there the range admits, ordered by that value
// and then by key. The data holds ints and nulls, whose encoding order is
// Value.Compare, so admission is decided by Compare.
func checkRange(t *testing.T, set *Set, want []Tuple, pos int, rnd *rand.Rand) {
	t.Helper()
	rg := Range{}
	var admits []func(Value) bool
	for i, n := 0, rnd.Intn(3); i < n; i++ {
		c := Int(rnd.Intn(6) - 1)
		switch rnd.Intn(4) {
		case 0:
			rg = rg.AtLeast(c)
			admits = append(admits, func(v Value) bool { return v.Compare(c) >= 0 })
		case 1:
			rg = rg.Above(c)
			admits = append(admits, func(v Value) bool { return v.Compare(c) > 0 })
		case 2:
			rg = rg.AtMost(c)
			admits = append(admits, func(v Value) bool { return v.Compare(c) <= 0 })
		default:
			rg = rg.Below(c)
			admits = append(admits, func(v Value) bool { return v.Compare(c) < 0 })
		}
	}
	var filtered []Tuple
	for _, tu := range want {
		ok := pos < len(tu)
		for _, a := range admits {
			ok = ok && a(tu[pos])
		}
		if ok {
			filtered = append(filtered, tu)
		}
	}
	if rg.Empty() && len(filtered) > 0 {
		t.Fatalf("range %v over %d admits %v but is empty", rg, pos, filtered)
	}
	slices.SortStableFunc(filtered, func(a, b Tuple) int { return a[pos].Compare(b[pos]) })
	var got []Tuple
	set.ScanRangeKeys("r", pos, rg, func(key string, tu Tuple) bool {
		if key != tu.Key() {
			t.Fatalf("range scan key %q for %v", key, tu)
		}
		got = append(got, tu)
		return true
	})
	if !slices.EqualFunc(got, filtered, Tuple.Equal) {
		t.Fatalf("range %v over %d = %v, want %v", rg, pos, got, filtered)
	}
}
