package chase

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codb/internal/cq"
	"codb/internal/relation"
)

// TestFixpointIdempotent: chasing the fixpoint again adds nothing.
func TestFixpointIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rules, start := randomNetwork(rnd)
		opts := Options{}
		once, stats1, err := Fixpoint(rules, start, opts)
		if err != nil {
			return false
		}
		twice, stats2, err := Fixpoint(rules, once, opts)
		if err != nil {
			return false
		}
		_ = stats1
		if stats2.FactsAdded != 0 {
			t.Logf("seed %d: second chase added %d facts", seed, stats2.FactsAdded)
			return false
		}
		for node, in := range once {
			if in.Size() != twice[node].Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFixpointMonotone: adding data never removes derived facts.
func TestFixpointMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rules, start := randomNetwork(rnd)
		opts := Options{}
		small, _, err := Fixpoint(rules, start, opts)
		if err != nil {
			return false
		}
		// Add one extra tuple somewhere and re-chase from the seeds.
		bigger := make(map[string]relation.Instance, len(start))
		for n, in := range start {
			bigger[n] = in.Clone()
		}
		var anyNode string
		for n := range bigger {
			anyNode = n
			break
		}
		if anyNode == "" {
			return true
		}
		bigger[anyNode].Insert("u", intT(7))
		big, _, err := Fixpoint(rules, bigger, opts)
		if err != nil {
			return false
		}
		for node, in := range small {
			for rel, m := range in {
				for _, tup := range m {
					if !big[node].Has(rel, tup) {
						t.Logf("seed %d: %s.%s%v lost after growing the input", seed, node, rel, tup)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkApplierFacts(b *testing.B) {
	r := cq.MustParseRule("r", `A.p(x, z) <- B.q(x, y)`)
	a, err := NewApplier(r, Options{})
	if err != nil {
		b.Fatal(err)
	}
	bindings := make([]relation.Tuple, 1000)
	for i := range bindings {
		bindings[i] = relation.Tuple{relation.Int(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Facts(bindings)
	}
}

func BenchmarkFixpointChain(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rules []*cq.Rule
			for i := 0; i < n-1; i++ {
				rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d", i),
					fmt.Sprintf(`N%d.u(x) <- N%d.u(x)`, i, i+1)))
			}
			start := make(map[string]relation.Instance)
			for i := 0; i < n; i++ {
				in := relation.NewInstance()
				for k := 0; k < 200; k++ {
					in.Insert("u", intT(i*1000+k))
				}
				start[fmt.Sprintf("N%d", i)] = in
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := FixpointSemiNaive(rules, start, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
