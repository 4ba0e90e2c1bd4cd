package btree

// Batch is the input of AddSorted: items in strictly ascending key order,
// read in place from wherever the caller holds them.
type Batch[V any] interface {
	Len() int
	Key(i int) string
	Value(i int) V
}

// AddSorted adds every item of b whose key is not yet present, like Add
// called for each in turn, and returns how many it added. When added is
// not nil (len(added) == b.Len()), added[i] reports whether item i was
// stored: false for a key already present.
//
// It descends once per subtree the batch reaches and rebuilds each leaf it
// touches in one merge pass: a shared leaf is copied and merged into at
// once, a leaf the tree owns is merged into in place from the back, and a
// leaf that overflows is cut into balanced leaves whose separators are
// spliced into the parent, which splits in turn when it overflows. An
// interior node is copied only once a child below it changed, and a node
// the batch adds nothing to is left as it was.
func (m *Map[V]) AddSorted(b Batch[V], added []bool) int {
	n := b.Len()
	if n == 0 {
		return 0
	}
	a := adder[V]{m: m, b: b, added: added}
	m.root = a.add(m.root, 0, 0, n)
	for len(a.ups) > 0 {
		// The root split: its parts become the children of a new root,
		// which splits again while it holds more than degree of them.
		m.root = m.newInterior(nil, []*node[V]{m.root})
		a.splice(m.root, 0, 0)
	}
	m.len += a.n
	return a.n
}

// adder is the state of one AddSorted.
type adder[V any] struct {
	m     *Map[V]
	b     Batch[V]
	added []bool
	n     int // items added so far
	// ups holds the new right siblings of split nodes, in key order, until
	// their parent splices them in.
	ups []split[V]
	// pos is the leaf merge's scratch: for each item of the leaf's range,
	// the index in the leaf it goes before, or -1 when its key is present.
	// A range of up to len(posBuf) items uses posBuf.
	pos    []int32
	posBuf [64]int32
}

// split is a node made by cutting an overflowing child of the node being
// rebuilt: it goes right after child at, and sep is its smallest key.
type split[V any] struct {
	at   int
	sep  string
	node *node[V]
}

// add merges items [lo, hi) of the batch, which all belong under n, into
// the subtree at n, which is child at of its parent. It returns the node
// that replaces n there (n itself unless n was shared and had to change)
// and leaves any new right siblings in a.ups.
func (a *adder[V]) add(n *node[V], at, lo, hi int) *node[V] {
	if n.leaf() {
		return a.leaf(n, at, lo, hi)
	}
	base := len(a.ups)
	for lo < hi {
		c := childIndex(n.keys, a.b.Key(lo))
		end := hi
		if c < len(n.keys) {
			end = a.findFrom(lo+1, hi, n.keys[c])
		}
		child := n.children[c]
		if nc := a.add(child, c, lo, end); nc != child {
			n = a.m.mutable(n)
			n.children[c] = nc
		}
		lo = end
	}
	if len(a.ups) > base {
		n = a.m.mutable(n)
		a.splice(n, at, base)
	}
	return n
}

// findFrom returns the first index in [lo, hi) whose key is at least key,
// or hi: a galloping search from lo, since a child's share of the batch is
// usually small.
func (a *adder[V]) findFrom(lo, hi int, key string) int {
	// Every item below lo is below key; bound doubles its distance from lo
	// until it reaches an item at or above key.
	bound, step := lo, 1
	for bound < hi && a.b.Key(bound) < key {
		lo = bound + 1
		bound += step
		step *= 2
	}
	hi = min(hi, bound)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.b.Key(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leaf merges items [lo, hi) of the batch into leaf n (child at of its
// parent) and returns what replaces n. The first pass finds where each item
// goes and which are present; the second writes the merged sequence from
// the back, into n's own arrays when the tree owns n and they have room for
// the first part, and into fresh leaves otherwise.
func (a *adder[V]) leaf(n *node[V], at, lo, hi int) *node[V] {
	m, keys, vals := a.m, n.keys, n.vals
	var pos []int32
	if hi-lo <= len(a.posBuf) {
		pos = a.posBuf[:hi-lo]
	} else {
		if len(a.pos) < hi-lo {
			a.pos = make([]int32, hi-lo)
		}
		pos = a.pos[:hi-lo]
	}
	fresh, j := 0, 0
	for i := lo; i < hi; i++ {
		k := a.b.Key(i)
		j += search(keys[j:], k)
		present := j < len(keys) && keys[j] == k
		if present {
			pos[i-lo] = -1
		} else {
			pos[i-lo] = int32(j)
			fresh++
		}
		if a.added != nil {
			a.added[i] = !present
		}
	}
	if fresh == 0 {
		return n
	}
	a.n += fresh

	// The merged items are spread evenly over the fewest leaves that hold
	// them; a leaf of two or more parts has at least minItems.
	total := len(keys) + fresh
	parts := (total + maxItems - 1) / maxItems
	size := func(p int) int {
		if p < total%parts {
			return total/parts + 1
		}
		return total / parts
	}
	out := n
	if n.own != m.own || cap(keys) < size(0) {
		out = m.newLeaf()
	}
	out.keys, out.vals = out.keys[:size(0)], out.vals[:size(0)]
	base := len(a.ups)
	for p := 1; p < parts; p++ {
		l := m.newLeaf()
		l.keys, l.vals = l.keys[:size(p)], l.vals[:size(p)]
		a.ups = append(a.ups, split[V]{at: at, node: l})
	}
	f := filler[V]{first: out, rest: a.ups[base:], part: parts - 1, free: size(parts - 1)}
	r := len(keys)
	for i := hi - 1; i >= lo; i-- {
		p := int(pos[i-lo])
		if p < 0 {
			continue
		}
		f.put(keys[p:r], vals[p:r])
		r = p
		f.put1(a.b.Key(i), a.b.Value(i))
	}
	f.put(keys[:r], vals[:r])
	if out == n && size(0) < len(keys) {
		// What moved to the new leaves no longer pins anything here.
		clear(keys[size(0):])
		clear(vals[size(0):])
	}
	for i := range f.rest {
		f.rest[i].sep = f.rest[i].node.keys[0]
	}
	return out
}

// filler writes a leaf merge's output from the back: part 0 is first, part
// p > 0 is rest[p-1].node, and free counts the unwritten slots at the front
// of the part being filled. Writing from the back is what lets part 0 be the
// source leaf itself: an item is never written below where it was read from,
// and every item still unread sits below the write position.
type filler[V any] struct {
	first *node[V]
	rest  []split[V]
	part  int
	free  int
}

func (f *filler[V]) node(p int) *node[V] {
	if p == 0 {
		return f.first
	}
	return f.rest[p-1].node
}

// next moves to the previous part once the current one is full.
func (f *filler[V]) next() *node[V] {
	for f.free == 0 {
		f.part--
		f.free = len(f.node(f.part).keys)
	}
	return f.node(f.part)
}

// put writes keys and vals, a run of the source leaf, in front of what is
// already written.
func (f *filler[V]) put(keys []string, vals []V) {
	for len(keys) > 0 {
		d := f.next()
		c := min(len(keys), f.free)
		f.free -= c
		copy(d.keys[f.free:], keys[len(keys)-c:])
		copy(d.vals[f.free:], vals[len(vals)-c:])
		keys, vals = keys[:len(keys)-c], vals[:len(vals)-c]
	}
}

// put1 writes one item in front of what is already written.
func (f *filler[V]) put1(key string, val V) {
	d := f.next()
	f.free--
	d.keys[f.free], d.vals[f.free] = key, val
}

// splice inserts a.ups[base:], the new siblings of n's children, into n,
// which this tree owns and which is child at of its parent, and truncates
// a.ups to base. If n then holds more than degree children it is cut into
// balanced interiors, and all but the first are left in a.ups for n's
// parent.
func (a *adder[V]) splice(n *node[V], at, base int) {
	ups := a.ups[base:]
	total := len(n.children) + len(ups)
	if total <= degree {
		keys, children := n.keys, n.children
		n.keys, n.children = n.keys[:total-1], n.children[:total]
		spliceInto(n.keys, n.children, keys, children, ups)
		clear(ups)
		a.ups = a.ups[:base]
		return
	}
	keys, children := make([]string, total-1), make([]*node[V], total)
	spliceInto(keys, children, n.keys, n.children, ups)
	clear(ups)
	a.ups = a.ups[:base]
	parts := (total + degree - 1) / degree
	lo := 0
	for p := 0; p < parts; p++ {
		hi := lo + total/parts
		if p < total%parts {
			hi++
		}
		if p == 0 {
			clear(n.keys)
			clear(n.children)
			n.keys = append(n.keys[:0], keys[:hi-1]...)
			n.children = append(n.children[:0], children[:hi]...)
		} else {
			a.ups = append(a.ups, split[V]{at: at, sep: keys[lo-1], node: a.m.newInterior(keys[lo:hi-1], children[lo:hi])})
		}
		lo = hi
	}
}

// spliceInto writes src's separators and children, with the new siblings
// ups (ascending by at) inserted, into dst: each up goes right after child
// at, its separator in front of it. It fills dst from the back, so dst may
// be src itself, regrown in place.
func spliceInto[V any](dstKeys []string, dstChildren []*node[V], srcKeys []string, srcChildren []*node[V], ups []split[V]) {
	j := len(ups) // ups not yet placed
	for c := len(srcChildren) - 1; c >= 0; c-- {
		for j > 0 && ups[j-1].at == c {
			dstChildren[c+j] = ups[j-1].node
			dstKeys[c+j-1] = ups[j-1].sep
			j--
		}
		if j == 0 {
			// The rest keeps its place (a no-op when dst is src).
			copy(dstChildren[:c+1], srcChildren[:c+1])
			copy(dstKeys[:c], srcKeys[:c])
			return
		}
		dstChildren[c+j] = srcChildren[c]
		if c > 0 {
			dstKeys[c+j-1] = srcKeys[c-1]
		}
	}
}
