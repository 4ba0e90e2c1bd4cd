package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// checkInvariants verifies the structure of a tree: leaves at one depth,
// node occupancy, sorted keys, separators bounding their subtrees, and Len.
func checkInvariants[V any](t *testing.T, m *Map[V]) {
	t.Helper()
	count := 0
	leafDepth := -1
	var walk func(n *node[V], depth int, lo, hi string, root bool)
	walk = func(n *node[V], depth int, lo, hi string, root bool) {
		if len(n.keys) > maxItems {
			t.Fatalf("node holds %d keys, max %d", len(n.keys), maxItems)
		}
		if !root && len(n.keys) < minItems {
			t.Fatalf("non-root node holds %d keys, min %d", len(n.keys), minItems)
		}
		for i, k := range n.keys {
			if i > 0 && n.keys[i-1] >= k {
				t.Fatalf("keys out of order: %q then %q", n.keys[i-1], k)
			}
			if k < lo || (hi != "" && k >= hi) {
				t.Fatalf("key %q outside its subtree's range [%q, %q)", k, lo, hi)
			}
		}
		if n.leaf() {
			if len(n.vals) != len(n.keys) {
				t.Fatalf("leaf has %d keys, %d values", len(n.keys), len(n.vals))
			}
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaf at depth %d, another at %d", depth, leafDepth)
			}
			count += len(n.keys)
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("interior node has %d keys, %d children", len(n.keys), len(n.children))
		}
		if root && len(n.keys) == 0 {
			t.Fatal("interior root without a separator")
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			walk(c, depth+1, clo, chi, false)
		}
	}
	walk(m.root, 0, "", "", true)
	if count != m.Len() {
		t.Fatalf("tree holds %d keys, Len = %d", count, m.Len())
	}
}

// modelled is a tree with the map it must equal.
type modelled struct {
	m   *Map[int]
	ref map[string]int
}

func (x *modelled) clone() *modelled {
	ref := make(map[string]int, len(x.ref))
	for k, v := range x.ref {
		ref[k] = v
	}
	return &modelled{m: x.m.Clone(), ref: ref}
}

// verify compares every observable of the tree with the model.
func (x *modelled) verify(t *testing.T, r *rand.Rand, space int) {
	t.Helper()
	checkInvariants(t, x.m)
	keys := make([]string, 0, len(x.ref))
	for k := range x.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if x.m.Len() != len(keys) {
		t.Fatalf("Len = %d, model %d", x.m.Len(), len(keys))
	}
	for i := 0; i < 200; i++ {
		k := key(r.Intn(space))
		v, ok := x.m.Get(k)
		if rv, rok := x.ref[k]; ok != rok || v != rv {
			t.Fatalf("Get(%s) = %d,%v, model %d,%v", k, v, ok, rv, rok)
		}
	}
	scanned := func(run func(fn func(string, int) bool)) (got []string) {
		run(func(k string, v int) bool {
			if x.ref[k] != v {
				t.Fatalf("scan yields %s=%d, model %d", k, v, x.ref[k])
			}
			got = append(got, k)
			return true
		})
		return got
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, model %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: key %d is %s, model %s", what, i, got[i], want[i])
			}
		}
	}
	same("AscendAll", scanned(x.m.AscendAll), keys)

	var vals []int
	x.m.AscendValues(func(v int) bool { vals = append(vals, v); return true })
	if len(vals) != len(keys) {
		t.Fatalf("AscendValues: %d values, model %d", len(vals), len(keys))
	}
	for i, v := range vals {
		if v != x.ref[keys[i]] {
			t.Fatalf("AscendValues: value %d is %d, model %d", i, v, x.ref[keys[i]])
		}
	}

	for i := 0; i < 8; i++ {
		from, to := key(r.Intn(space)), key(r.Intn(space))
		switch r.Intn(4) {
		case 0:
			from = ""
		case 1:
			to = ""
		}
		lo := sort.SearchStrings(keys, from)
		hi := len(keys)
		if to != "" {
			hi = max(lo, sort.SearchStrings(keys, to))
		}
		what := fmt.Sprintf("Ascend[%s,%s)", from, to)
		same(what, scanned(func(fn func(string, int) bool) { x.m.Ascend(from, to, fn) }), keys[lo:hi])
	}

	mink, minv, ok := x.m.Min()
	maxk, maxv, ok2 := x.m.Max()
	if ok != (len(keys) > 0) || ok2 != ok {
		t.Fatalf("Min/Max ok = %v/%v with %d keys", ok, ok2, len(keys))
	}
	if ok && (mink != keys[0] || minv != x.ref[mink] || maxk != keys[len(keys)-1] || maxv != x.ref[maxk]) {
		t.Fatalf("Min/Max = %s/%s, model %s/%s", mink, maxk, keys[0], keys[len(keys)-1])
	}
}

// TestCloneAgainstModel is the model-based property test of Clone: a random
// insert/overwrite/delete stream over a handful of trees, cloning at random
// points and then mutating origin and clones alike. Each tree must equal its
// own map model at every check, so a write leaking through a shared node —
// on the insert, delete or rebalance path — shows as some other tree
// diverging. The stream alternates growing and shrinking phases, which
// drives splits, borrows and merges at leaf and interior level.
func TestCloneAgainstModel(t *testing.T) {
	const (
		space = 30000
		phase = 60000 // steps per growing or shrinking phase
	)
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		trees := []*modelled{{m: New[int](), ref: map[string]int{}}}
		for step := 0; step < 6*phase; step++ {
			x := trees[r.Intn(len(trees))]
			puts := 70 // percent of steps that Put; the rest mostly Delete
			if (step/phase)%2 == 1 {
				puts = 20
			}
			k := key(r.Intn(space))
			switch p := r.Intn(100); {
			case p == 0 && r.Intn(10) == 0:
				c := x.clone()
				if len(trees) < 4 {
					trees = append(trees, c)
				} else {
					trees[1+r.Intn(len(trees)-1)] = c
				}
			case p < puts:
				v := r.Intn(1 << 20)
				old, had := x.m.Put(k, v)
				if rv, rhad := x.ref[k]; had != rhad || old != rv {
					t.Fatalf("seed %d step %d: Put(%s) = %d,%v, model %d,%v", seed, step, k, old, had, rv, rhad)
				}
				x.ref[k] = v
			case p < puts+5:
				added := x.m.Add(k, step)
				if _, had := x.ref[k]; added == had {
					t.Fatalf("seed %d step %d: Add(%s) = %v with the key present: %v", seed, step, k, added, had)
				}
				if added {
					x.ref[k] = step
				}
			default:
				// Mostly a key that is there: the successor of a random one.
				x.m.Ascend(k, "", func(next string, _ int) bool {
					if r.Intn(10) > 0 {
						k = next
					}
					return false
				})
				old, had := x.m.Delete(k)
				if rv, rhad := x.ref[k]; had != rhad || old != rv {
					t.Fatalf("seed %d step %d: Delete(%s) = %d,%v, model %d,%v", seed, step, k, old, had, rv, rhad)
				}
				delete(x.ref, k)
			}
			if step%10000 == 9999 {
				for _, x := range trees {
					x.verify(t, r, space)
				}
			}
		}
	}
}

// TestFromSorted checks the bulk loader against insertion at sizes around
// every node boundary, and that a bulk-loaded tree takes writes (its leaves
// start as windows onto the caller's slices).
func TestFromSorted(t *testing.T) {
	sizes := []int{0, 1, 2, minItems, maxItems - 1, maxItems, maxItems + 1, 2 * maxItems, 2*maxItems + 1,
		degree * maxItems, degree*maxItems + 1, 3*degree*maxItems + 17}
	r := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		keys := make([]string, n)
		vals := make([]int, n)
		x := &modelled{ref: make(map[string]int, n)}
		for i := range keys {
			keys[i], vals[i] = key(2*i), i
			x.ref[keys[i]] = i
		}
		x.m = FromSorted(keys, vals)
		x.verify(t, r, 2*n+2)
		for i := 0; i < 500; i++ {
			k := key(r.Intn(2*n + 2))
			if r.Intn(3) == 0 {
				x.m.Delete(k)
				delete(x.ref, k)
			} else {
				x.m.Put(k, i)
				x.ref[k] = i
			}
		}
		x.verify(t, r, 2*n+2)
	}
}

// TestCloneReadersVersusWriter has readers scan clones while the writer
// keeps committing to the origin. Under -race any write into a node a clone
// still shares is a reported data race; without it, a clone whose contents
// moved fails its checksum.
func TestCloneReadersVersusWriter(t *testing.T) {
	type pinned struct {
		m *Map[int]
		n int
	}
	const readers = 4
	work := make(chan pinned, readers) // one clone in hand per reader
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				for pass := 0; pass < 3; pass++ {
					n, sum, prev := 0, 0, ""
					p.m.AscendAll(func(k string, v int) bool {
						if k <= prev {
							t.Errorf("clone scan out of order: %q after %q", k, prev)
						}
						prev = k
						n++
						sum += v
						return true
					})
					p.m.AscendValues(func(v int) bool { sum -= v; return true })
					if n != p.n || n != p.m.Len() || sum != 0 {
						t.Errorf("clone of %d keys scanned %d, Len %d, checksum off by %d", p.n, n, p.m.Len(), sum)
					}
					p.m.Get(prev)
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	m := New[int]()
	ref := map[string]int{}
	for step := 0; step < 40000; step++ {
		k := key(r.Intn(4000))
		if r.Intn(3) == 0 {
			m.Delete(k)
			delete(ref, k)
		} else {
			m.Put(k, step)
			ref[k] = step
		}
		if step%50 == 0 {
			p := pinned{m: m.Clone(), n: len(ref)}
			select {
			case work <- p:
			default: // every reader is busy: keep writing
			}
		}
	}
	close(work)
	wg.Wait()
}
