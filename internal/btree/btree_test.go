package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	m := New[int]()
	if m.Len() != 0 {
		t.Error("empty tree has nonzero Len")
	}
	if _, ok := m.Get("x"); ok {
		t.Error("Get on empty tree found something")
	}
	if _, ok := m.Delete("x"); ok {
		t.Error("Delete on empty tree removed something")
	}
	if _, _, ok := m.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, _, ok := m.Max(); ok {
		t.Error("Max on empty tree")
	}
	n := 0
	m.AscendAll(func(string, int) bool { n++; return true })
	if n != 0 {
		t.Error("AscendAll on empty tree visited keys")
	}
}

func TestPutGetReplace(t *testing.T) {
	m := New[int]()
	if _, replaced := m.Put("a", 1); replaced {
		t.Error("first Put reported replace")
	}
	old, replaced := m.Put("a", 2)
	if !replaced || old != 1 {
		t.Errorf("replace = %v, old = %d", replaced, old)
	}
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Errorf("Get = %d, %v", v, ok)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestLargeInsertAscending(t *testing.T) {
	m := New[int]()
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(key(i), i)
	}
	checkTree(t, m, n)
}

func TestLargeInsertDescending(t *testing.T) {
	m := New[int]()
	const n = 10000
	for i := n - 1; i >= 0; i-- {
		m.Put(key(i), i)
	}
	checkTree(t, m, n)
}

func TestLargeInsertShuffled(t *testing.T) {
	m := New[int]()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		m.Put(key(i), i)
	}
	checkTree(t, m, n)
}

func key(i int) string { return fmt.Sprintf("k%08d", i) }

func checkTree(t *testing.T, m *Map[int], n int) {
	t.Helper()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(key(i)); !ok || v != i {
			t.Fatalf("Get(%s) = %d, %v", key(i), v, ok)
		}
	}
	// Full ordered scan.
	i := 0
	m.AscendAll(func(k string, v int) bool {
		if k != key(i) || v != i {
			t.Fatalf("scan at %d: got %s=%d", i, k, v)
		}
		i++
		return true
	})
	if i != n {
		t.Fatalf("scan visited %d of %d", i, n)
	}
	if k, _, _ := m.Min(); k != key(0) {
		t.Fatalf("Min = %s", k)
	}
	if k, _, _ := m.Max(); k != key(n-1) {
		t.Fatalf("Max = %s", k)
	}
}

func TestDeleteAll(t *testing.T) {
	const n = 5000
	for _, order := range []string{"asc", "desc", "shuffled"} {
		m := New[int]()
		for i := 0; i < n; i++ {
			m.Put(key(i), i)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		switch order {
		case "desc":
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				idx[i], idx[j] = idx[j], idx[i]
			}
		case "shuffled":
			rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		for c, i := range idx {
			v, ok := m.Delete(key(i))
			if !ok || v != i {
				t.Fatalf("%s: Delete(%s) = %d, %v", order, key(i), v, ok)
			}
			if m.Len() != n-c-1 {
				t.Fatalf("%s: Len = %d after %d deletes", order, m.Len(), c+1)
			}
		}
		if _, ok := m.Delete(key(0)); ok {
			t.Fatalf("%s: delete from empty tree succeeded", order)
		}
	}
}

func TestRangeScan(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Put(key(i), i)
	}
	var got []int
	m.Ascend(key(10), key(20), func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("range [10,20) = %v", got)
	}
	// Early stop.
	got = nil
	m.Ascend(key(0), "", func(k string, v int) bool {
		got = append(got, v)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early stop visited %d", len(got))
	}
	// From a key that is absent.
	got = nil
	m.Ascend(key(10)+"x", key(13), func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != 11 {
		t.Errorf("absent-start range = %v", got)
	}
}

// TestAscendPrefix: a prefix walk yields exactly the keys of a full scan
// that begin with the prefix, for runs that start mid-leaf, start past a
// leaf's last key, span many leaves or are empty, and it stops when fn
// says so.
func TestAscendPrefix(t *testing.T) {
	m := New[int]()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		// Runs of very different lengths under one-byte prefixes.
		p := byte('a' + rng.Intn(6)*rng.Intn(4))
		m.Put(fmt.Sprintf("%c%06d", p, rng.Intn(1_000_000)), i)
	}
	prefixes := []string{"", "a", "b", "d", "j", "p", "z", "a0", "a00", "d1234", "\xff"}
	for i := 0; i < 200; i++ {
		prefixes = append(prefixes, fmt.Sprintf("%c%d", 'a'+rng.Intn(16), rng.Intn(1000)))
	}
	for _, p := range prefixes {
		var want, got []string
		m.AscendAll(func(k string, _ int) bool {
			if strings.HasPrefix(k, p) {
				want = append(want, k)
			}
			return true
		})
		m.AscendPrefix([]byte(p), func(k string, _ int) bool {
			got = append(got, k)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("AscendPrefix(%q): %d keys, want %d", p, len(got), len(want))
		}
		if len(want) < 2 {
			continue
		}
		got = got[:0]
		m.AscendPrefix([]byte(p), func(k string, _ int) bool {
			got = append(got, k)
			return len(got) < len(want)/2
		})
		if len(got) != len(want)/2 {
			t.Fatalf("AscendPrefix(%q) stopped after %d keys, want %d", p, len(got), len(want)/2)
		}
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100000; i++ {
		m.Put(key(i), i)
	}
	if d := m.depth(); d > 4 {
		t.Errorf("depth = %d for 1e5 keys with degree %d", d, degree)
	}
}

// Property test: a random op sequence applied to the tree and to a reference
// map must agree on every observable.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New[int]()
		ref := make(map[string]int)
		const ops = 3000
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%03d", r.Intn(500))
			switch r.Intn(3) {
			case 0, 1:
				v := r.Intn(1e6)
				old, replaced := m.Put(k, v)
				refOld, refHad := ref[k]
				if replaced != refHad || (refHad && old != refOld) {
					t.Logf("Put(%s) mismatch", k)
					return false
				}
				ref[k] = v
			case 2:
				old, removed := m.Delete(k)
				refOld, refHad := ref[k]
				if removed != refHad || (refHad && old != refOld) {
					t.Logf("Delete(%s) mismatch", k)
					return false
				}
				delete(ref, k)
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		okScan := true
		m.AscendAll(func(k string, v int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				okScan = false
				return false
			}
			i++
			return true
		})
		return okScan && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPut(b *testing.B) {
	m := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(key(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[int]()
	for i := 0; i < 100000; i++ {
		m.Put(key(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Get(key(i % 100000))
	}
}

// TestAdd: Add stores only absent keys and never disturbs a present one.
func TestAdd(t *testing.T) {
	m := New[int]()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%04d", (i*7919)%500)
		_, had := m.Get(k)
		if added := m.Add(k, i); added == had {
			t.Fatalf("Add(%s) = %v with the key present = %v", k, added, had)
		}
		if v, _ := m.Get(k); had && v == i {
			t.Fatalf("Add(%s) overwrote a present key", k)
		}
	}
	if m.Len() != 500 {
		t.Fatalf("Len = %d, want 500", m.Len())
	}
	prev := ""
	m.AscendAll(func(k string, _ int) bool {
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		return true
	})
}
