package btree

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// sorted is a Batch over parallel key and value slices.
type sorted struct {
	keys []string
	vals []int
}

func (s sorted) Len() int             { return len(s.keys) }
func (s sorted) Key(i int) string     { return s.keys[i] }
func (s sorted) Value(i int) int      { return s.vals[i] }
func (s *sorted) add(k string, v int) { s.keys, s.vals = append(s.keys, k), append(s.vals, v) }

// randomBatch draws n distinct keys of [0, space) in ascending order, each
// with value v+i.
func randomBatch(r *rand.Rand, n, space, v int) sorted {
	picked := map[int]bool{}
	for len(picked) < min(n, space) {
		picked[r.Intn(space)] = true
	}
	ids := make([]int, 0, len(picked))
	for i := range picked {
		ids = append(ids, i)
	}
	slices.Sort(ids)
	var b sorted
	for i, id := range ids {
		b.add(key(id), v+i)
	}
	return b
}

// addSorted applies one batch to a modelled tree and checks what AddSorted
// reports against the model.
func (x *modelled) addSorted(t *testing.T, b sorted) {
	t.Helper()
	added := make([]bool, b.Len())
	n := x.m.AddSorted(b, added)
	want := 0
	for i, k := range b.keys {
		_, had := x.ref[k]
		if added[i] == had {
			t.Fatalf("AddSorted: added[%d] (%s) = %v with the key present = %v", i, k, added[i], had)
		}
		if !had {
			x.ref[k] = b.vals[i]
			want++
		}
	}
	if n != want {
		t.Fatalf("AddSorted added %d, model %d", n, want)
	}
}

// TestAddSortedAgainstModel is the differential test of the batch merge:
// ascending batches of every size from one key to several trees' worth,
// dense and sparse, into trees that are empty, bulk-loaded, grown by single
// Puts or thinned by Deletes, with clones taken between batches. Every tree
// must equal its own map model, structure included, after every batch: a
// merge writing into a node a clone still shares shows as that clone
// diverging from its model.
func TestAddSortedAgainstModel(t *testing.T) {
	sizes := []int{1, 2, 5, 31, 63, 64, 65, 200, 1000, 4100, 20000}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		space := []int{300, 5000, 60000}[seed-1]
		x := &modelled{m: New[int](), ref: map[string]int{}}
		if seed == 2 {
			// Bulk-loaded leaves are windows with no spare capacity.
			var b sorted
			for i := 0; i < space; i += 3 {
				b.add(key(i), i)
				x.ref[key(i)] = i
			}
			x.m = FromSorted(b.keys, b.vals)
		}
		var clones []*modelled
		for step := 0; step < 40; step++ {
			switch r.Intn(8) {
			case 0:
				clones = append(clones, x.clone())
			case 1:
				// Thin the tree out, so leaves sit at their minimum.
				for i := 0; i < 300; i++ {
					k := key(r.Intn(space))
					x.m.Delete(k)
					delete(x.ref, k)
				}
			case 2:
				for i := 0; i < 50; i++ {
					k := key(r.Intn(space))
					x.m.Put(k, i)
					x.ref[k] = i
				}
			}
			n := sizes[r.Intn(len(sizes))]
			b := randomBatch(r, n, space, step*100000)
			if r.Intn(4) == 0 {
				// A run of consecutive keys: one leaf takes most of it.
				from := r.Intn(space)
				b = sorted{}
				for i := from; i < min(space, from+n); i++ {
					b.add(key(i), step*100000+i)
				}
			}
			x.addSorted(t, b)
			x.verify(t, r, space)
			for _, c := range clones {
				c.verify(t, r, space)
			}
			if len(clones) > 3 {
				clones = clones[1:]
			}
		}
	}
}

// TestAddSortedEmptyAndPresent: an empty batch and a batch of present keys
// leave the tree, and every node of it, as they were.
func TestAddSortedEmptyAndPresent(t *testing.T) {
	m := New[int]()
	var b sorted
	for i := 0; i < 5000; i++ {
		b.add(key(i), i)
	}
	if n := m.AddSorted(b, nil); n != 5000 {
		t.Fatalf("AddSorted into an empty tree added %d of 5000", n)
	}
	checkInvariants(t, m)
	c := m.Clone()
	root := m.root
	if n := m.AddSorted(sorted{}, nil); n != 0 || m.root != root {
		t.Fatalf("an empty batch added %d, root moved %v", n, m.root != root)
	}
	added := []bool{true, true}
	if n := m.AddSorted(sorted{keys: []string{key(7), key(4000)}, vals: []int{-1, -1}}, added); n != 0 || m.root != root || added[0] || added[1] {
		t.Fatalf("a batch of present keys added %d (%v), root moved %v", n, added, m.root != root)
	}
	if v, _ := m.Get(key(7)); v != 7 {
		t.Fatalf("a present key's value changed to %d", v)
	}
	checkInvariants(t, c)
}

// FuzzAddSorted drives batches derived from the input through a tree and a
// map model, with a clone taken before every batch that must not move. Each
// 4-byte group of the input is one key draw; a group whose first byte is
// 0xFF ends the batch, up to 16 batches; past 4 KiB the input is ignored.
func FuzzAddSorted(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0, 0, 0, 0, 0, 0, 1})
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<20))
	seed := make([]byte, 0, 4*300)
	for i := 0; i < 300; i++ {
		seed = binary.BigEndian.AppendUint32(seed, uint32(i*7%500))
		if i%97 == 96 {
			seed = append(seed, 0xFF, 0, 0, 0)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4<<10)]
		x := &modelled{m: New[int](), ref: map[string]int{}}
		r := rand.New(rand.NewSource(int64(len(data))))
		var draws []int
		batches := 0
		flush := func() {
			batches++
			slices.Sort(draws)
			draws = slices.Compact(draws)
			var b sorted
			for i, d := range draws {
				b.add(key(d), len(x.ref)+i)
			}
			draws = draws[:0]
			before := x.clone()
			x.addSorted(t, b)
			x.verify(t, r, 1<<12)
			before.verify(t, r, 1<<12)
		}
		for len(data) >= 4 {
			if data[0] == 0xFF && batches < 16 {
				flush()
			} else if data[0] != 0xFF {
				// Keys of a 4096-key space, so that batches hit present ones.
				draws = append(draws, int(binary.BigEndian.Uint32(data)%(1<<12)))
			}
			data = data[4:]
		}
		flush()
	})
}
