package relation

import "testing"

// TestScanEqAllocs: a warmed equality probe of a Set, at the primary and at
// a secondary position, allocates nothing; building the probe's range
// through Point allocated its two bounds on every call.
func TestScanEqAllocs(t *testing.T) {
	s := NewSet()
	for i := 0; i < 500; i++ {
		tu := Tuple{Int(i % 50), Int(i)}
		s.Insert("r", tu.Key(), tu)
	}
	for _, pos := range []int{0, 1} {
		n := 0
		probe := func() { s.ScanEq("r", pos, Int(7), func(Tuple) bool { n++; return true }) }
		probe() // builds the secondary tree
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Errorf("ScanEq at position %d: %.0f allocations per probe, want 0", pos, allocs)
		}
		if n == 0 {
			t.Errorf("ScanEq at position %d found nothing", pos)
		}
	}
}

// BenchmarkScanEq probes a Set by equality at a secondary position whose
// value matches one tuple or a run of a thousand.
func BenchmarkScanEq(b *testing.B) {
	s := NewSet()
	for i := 0; i < 20000; i++ {
		v := i % 20 // 1000 tuples per value 0..19
		if i >= 10000 {
			v = i // one tuple per value
		}
		tu := Tuple{Int(i), Int(v)}
		s.Insert("r", tu.Key(), tu)
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"run=1", 15000}, {"run=1000", 7}} {
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				s.ScanEq("r", 1, Int(c.v), func(Tuple) bool { n++; return true })
			}
		})
	}
}
