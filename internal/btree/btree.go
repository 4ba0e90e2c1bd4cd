// Package btree implements an in-memory B+tree keyed by byte strings, used
// by the storage engine for primary and secondary indexes. Keys are compared
// bytewise, which matches relational order for keys produced by the
// order-preserving codec in internal/relation.
//
// The tree supports insert, lookup, delete with rebalancing, ordered range
// scans, bulk loading from sorted input, and O(1) copy-on-write clones. It
// is not safe for concurrent mutation; the storage layer serialises writers.
//
// Clones share nodes. Every node carries the ownership token of the tree
// that allocated it, and a writer copies a node whose token is not its own
// before changing it — on the insert, delete and rebalance paths alike — so
// a clone never observes a later write to its origin (or the reverse). A
// node reachable from two trees is therefore immutable, which is what lets
// any number of readers scan clones while the origin keeps committing.
// Leaves are not chained (a shared leaf cannot hold one tree's successor
// pointer); scans walk with a descent stack instead.
package btree

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 items.
//
// It trades the bytes a writer copies when it first touches a shared node
// against scan speed and depth, and was settled on storage's
// BenchmarkSnapshotAfterCommit and BenchmarkSnapshotScan (figures there): 16
// and 32 copy half to two thirds of what 64 does per commit after a pin, but
// scan a relation 68% and 24% slower; 128 copies half as much again and
// scans no faster. Between 32 and 64 the two pull in opposite directions, so
// the bench/ workloads decided: update-cold the same, read-write-mix (full
// scans) and update-incr-durable (increments land on one edge of the tree,
// so few leaves are copied whatever their size) 2-5% ahead at 64.
const degree = 64

const (
	maxItems = degree - 1
	minItems = maxItems / 2
)

// Map is a B+tree from string keys to values of type V. The zero value is
// not usable; call New.
type Map[V any] struct {
	root *node[V]
	len  int
	own  *token // nodes carrying it are private to this tree
}

// token identifies the tree a node belongs to. It has a size so that every
// allocated token has an address of its own.
type token struct{ _ byte }

type node[V any] struct {
	own      *token
	keys     []string
	vals     []V        // leaf only, parallel to keys
	children []*node[V] // interior only, len(children) == len(keys)+1
}

func (n *node[V]) leaf() bool { return n.children == nil }

// search returns the smallest index i with keys[i] >= key (len(keys) if
// none): sort.SearchStrings without the per-step closure call, which is
// most of a descent's cost.
func search(keys []string, key string) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child of an interior node whose subtree holds key:
// a key equal to a separator lives in the right subtree.
func childIndex(keys []string, key string) int {
	i := search(keys, key)
	if i < len(keys) && keys[i] == key {
		i++
	}
	return i
}

// newLeaf returns an empty leaf whose arrays already have room for a full
// node plus the one item that overflows it, so inserts never regrow them.
func (m *Map[V]) newLeaf() *node[V] {
	return &node[V]{own: m.own, keys: make([]string, 0, maxItems+1), vals: make([]V, 0, maxItems+1)}
}

// newInterior returns an interior node holding the given separators and
// children, with the same room to overflow by one.
func (m *Map[V]) newInterior(keys []string, children []*node[V]) *node[V] {
	return &node[V]{
		own:      m.own,
		keys:     append(make([]string, 0, maxItems+1), keys...),
		children: append(make([]*node[V], 0, degree+1), children...),
	}
}

// New returns an empty tree.
func New[V any]() *Map[V] {
	m := &Map[V]{own: new(token)}
	m.root = m.newLeaf()
	return m
}

// FromSorted builds a tree over strictly ascending keys and their values in
// one bottom-up pass — no descents, no splits. The tree takes ownership of
// both slices: its leaves are windows onto them.
func FromSorted[V any](keys []string, vals []V) *Map[V] {
	m := New[V]()
	n := len(keys)
	if n == 0 {
		return m
	}
	m.len = n
	// Spread the items evenly over the fewest leaves that hold them, so
	// every leaf of two or more has at least minItems. A window's capacity
	// is its length: an insert moves the leaf to arrays of its own.
	level := make([]*node[V], (n+maxItems-1)/maxItems)
	mins := make([]string, len(level)) // smallest key under each node
	lo := 0
	for i := range level {
		hi := lo + n/len(level)
		if i < n%len(level) {
			hi++
		}
		level[i] = &node[V]{own: m.own, keys: keys[lo:hi:hi], vals: vals[lo:hi:hi]}
		mins[i] = keys[lo]
		lo = hi
	}
	for len(level) > 1 {
		c := len(level)
		parents := make([]*node[V], (c+degree-1)/degree)
		parentMins := make([]string, len(parents))
		lo := 0
		for i := range parents {
			hi := lo + c/len(parents)
			if i < c%len(parents) {
				hi++
			}
			parents[i] = m.newInterior(mins[lo+1:hi], level[lo:hi])
			parentMins[i] = mins[lo]
			lo = hi
		}
		level, mins = parents, parentMins
	}
	m.root = level[0]
	return m
}

// Clone returns a tree with the same contents in O(1): the two share every
// node until one of them writes. Both get fresh ownership tokens, so neither
// may change a shared node in place. Clone is a write with respect to other
// writers and clones of m, but may run beside readers of m.
func (m *Map[V]) Clone() *Map[V] {
	m.own = new(token)
	return &Map[V]{root: m.root, len: m.len, own: new(token)}
}

// mutable returns n if this tree owns it, and a private copy otherwise
// (with full-capacity arrays, like any node this tree allocates). The
// caller stores the result where it found n.
func (m *Map[V]) mutable(n *node[V]) *node[V] {
	if n.own == m.own {
		return n
	}
	if n.leaf() {
		c := m.newLeaf()
		c.keys = append(c.keys, n.keys...)
		c.vals = append(c.vals, n.vals...)
		return c
	}
	return m.newInterior(n.keys, n.children)
}

// mutableChild makes child i of n (which this tree owns) private and
// returns it.
func (m *Map[V]) mutableChild(n *node[V], i int) *node[V] {
	c := m.mutable(n.children[i])
	n.children[i] = c
	return c
}

// Len returns the number of stored keys.
func (m *Map[V]) Len() int { return m.len }

// Get returns the value stored for key.
func (m *Map[V]) Get(key string) (V, bool) {
	n := m.root
	for !n.leaf() {
		n = n.children[childIndex(n.keys, key)]
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// Put stores value under key, returning the previous value if the key was
// already present.
func (m *Map[V]) Put(key string, value V) (old V, replaced bool) {
	return m.put(key, value, true)
}

// Add stores value under key unless the key is already present, reporting
// whether it was stored: a set-semantics insert in one descent.
func (m *Map[V]) Add(key string, value V) bool {
	_, present := m.put(key, value, false)
	return !present
}

func (m *Map[V]) put(key string, value V, overwrite bool) (old V, present bool) {
	m.root = m.mutable(m.root)
	old, present, splitKey, splitNode := m.insert(m.root, key, value, overwrite)
	if splitNode != nil {
		m.root = m.newInterior([]string{splitKey}, []*node[V]{m.root, splitNode})
	}
	if !present {
		m.len++
	}
	return old, present
}

// insert adds key to the subtree at n, which this tree owns; a key already
// present keeps its value unless overwrite is set. If n splits, it returns
// the separator key and the new right sibling.
func (m *Map[V]) insert(n *node[V], key string, value V, overwrite bool) (old V, present bool, splitKey string, splitNode *node[V]) {
	if n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			old = n.vals[i]
			if overwrite {
				n.vals[i] = value
			}
			return old, true, "", nil
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.vals = append(n.vals, zero)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) > maxItems {
			splitKey, splitNode = m.splitLeaf(n)
		}
		return old, false, splitKey, splitNode
	}
	i := childIndex(n.keys, key)
	old, present, sk, sn := m.insert(m.mutableChild(n, i), key, value, overwrite)
	if sn != nil {
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sk
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = sn
		if len(n.keys) > maxItems {
			splitKey, splitNode = m.splitInterior(n)
		}
	}
	return old, present, splitKey, splitNode
}

// splitLeaf splits an over-full leaf; the separator is the first key of the
// right half (B+tree style: separator is duplicated into the parent, data
// stays in leaves).
func (m *Map[V]) splitLeaf(n *node[V]) (string, *node[V]) {
	mid := len(n.keys) / 2
	right := m.newLeaf()
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	// The left half keeps its full-capacity arrays; the vacated tail is
	// cleared so it pins neither keys nor values.
	clear(n.keys[mid:])
	clear(n.vals[mid:])
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	return right.keys[0], right
}

// splitInterior splits an over-full interior node; the middle key moves up.
func (m *Map[V]) splitInterior(n *node[V]) (string, *node[V]) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := m.newInterior(n.keys[mid+1:], n.children[mid+1:])
	clear(n.keys[mid:])
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Delete removes key, returning its value if present.
func (m *Map[V]) Delete(key string) (V, bool) {
	m.root = m.mutable(m.root)
	old, removed := m.remove(m.root, key)
	if removed {
		m.len--
		if !m.root.leaf() && len(m.root.keys) == 0 {
			m.root = m.root.children[0]
		}
	}
	return old, removed
}

// cut removes element i of s in place, zeroing the vacated last slot so the
// array pins nothing it no longer holds.
func cut[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	clear(s[len(s)-1:])
	return s[:len(s)-1]
}

// unshift inserts v before element 0 of s.
func unshift[T any](s []T, v T) []T {
	s = append(s, v)
	copy(s[1:], s)
	s[0] = v
	return s
}

// remove deletes key from the subtree at n, which this tree owns.
func (m *Map[V]) remove(n *node[V], key string) (V, bool) {
	if n.leaf() {
		i := search(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			var zero V
			return zero, false
		}
		old := n.vals[i]
		n.keys = cut(n.keys, i)
		n.vals = cut(n.vals, i)
		return old, true
	}
	i := childIndex(n.keys, key)
	child := m.mutableChild(n, i)
	old, removed := m.remove(child, key)
	if removed && len(child.keys) < minItems {
		m.rebalance(n, i)
	}
	return old, removed
}

// rebalance restores the minimum-occupancy invariant of child i of n by
// borrowing from or merging with a sibling. n and child i are owned by this
// tree; a sibling is made private before it changes (a merged-away right
// sibling is only read).
func (m *Map[V]) rebalance(n *node[V], i int) {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].keys) > minItems {
		left := m.mutableChild(n, i-1)
		last := len(left.keys) - 1
		if child.leaf() {
			child.keys = unshift(child.keys, left.keys[last])
			child.vals = unshift(child.vals, left.vals[last])
			left.vals = cut(left.vals, last)
			n.keys[i-1] = child.keys[0]
		} else {
			child.keys = unshift(child.keys, n.keys[i-1])
			child.children = unshift(child.children, left.children[last+1])
			left.children = cut(left.children, last+1)
			n.keys[i-1] = left.keys[last]
		}
		left.keys = cut(left.keys, last)
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].keys) > minItems {
		right := m.mutableChild(n, i+1)
		if child.leaf() {
			child.keys = append(child.keys, right.keys[0])
			child.vals = append(child.vals, right.vals[0])
			right.vals = cut(right.vals, 0)
			n.keys[i] = right.keys[1]
		} else {
			child.keys = append(child.keys, n.keys[i])
			child.children = append(child.children, right.children[0])
			right.children = cut(right.children, 0)
			n.keys[i] = right.keys[0]
		}
		right.keys = cut(right.keys, 0)
		return
	}
	// Merge with a sibling.
	if i > 0 {
		i-- // merge children[i] (left) and children[i+1] (child)
	}
	left, right := m.mutableChild(n, i), n.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = cut(n.keys, i)
	n.children = cut(n.children, i+1)
}

// Ascend calls fn for every key in [from, to) in ascending order; an empty
// `to` means "until the end". fn returning false stops the scan.
func (m *Map[V]) Ascend(from, to string, fn func(key string, value V) bool) {
	var it cursor[V]
	it.seek(m.root, from)
	for more := true; more; more = it.nextLeaf() {
		keys, vals := it.n.keys, it.n.vals
		// The bound is tested once per leaf, not once per key.
		end := len(keys)
		if to != "" && end > 0 && keys[end-1] >= to {
			end = search(keys, to)
			it.depth = 0 // the scan ends in this leaf
		}
		for i := it.i; i < end; i++ {
			if !fn(keys[i], vals[i]) {
				return
			}
		}
	}
}

// AscendAll scans every key in ascending order.
func (m *Map[V]) AscendAll(fn func(key string, value V) bool) {
	m.Ascend("", "", fn)
}

// AscendValues scans every value in ascending key order. A caller that wants
// only the values passes its own callback straight through, sparing the
// adapter closure — one more indirect call per item — AscendAll would need.
func (m *Map[V]) AscendValues(fn func(value V) bool) {
	m.root.values(fn)
}

// values scans the subtree at n, reporting false once fn has.
func (n *node[V]) values(fn func(value V) bool) bool {
	for _, c := range n.children {
		if !c.values(fn) {
			return false
		}
	}
	for _, v := range n.vals {
		if !fn(v) {
			return false
		}
	}
	return true
}

// cursor is Ascend's position in the tree: the current leaf plus the stack
// of interior nodes above it.
type cursor[V any] struct {
	n     *node[V] // current leaf
	i     int      // next item of n
	depth int      // live frames of stack
	// stack is an array, not a slice, so that a cursor declared in a scan's
	// frame stays there. Twelve interior levels cannot fill up: at
	// the minimum fan-out they span more keys than memory holds.
	stack [12]frame[V]
}

// frame is one interior node on a cursor's path, with the index of the
// next child to descend into.
type frame[V any] struct {
	n    *node[V]
	next int
}

// seek positions the cursor at the smallest key >= from under root.
func (it *cursor[V]) seek(root *node[V], from string) {
	it.depth = 0
	n := root
	for !n.leaf() {
		i := 0
		if from != "" {
			i = childIndex(n.keys, from)
		}
		it.stack[it.depth] = frame[V]{n, i + 1}
		it.depth++
		n = n.children[i]
	}
	it.n, it.i = n, 0
	if from != "" {
		it.i = search(n.keys, from)
	}
}

// nextLeaf moves to the first item of the following leaf, reporting false
// when there is none.
func (it *cursor[V]) nextLeaf() bool {
	for it.depth > 0 {
		top := &it.stack[it.depth-1]
		if top.next == len(top.n.children) {
			it.depth--
			continue
		}
		n := top.n.children[top.next]
		top.next++
		for !n.leaf() {
			it.stack[it.depth] = frame[V]{n, 1}
			it.depth++
			n = n.children[0]
		}
		it.n, it.i = n, 0
		return true
	}
	return false
}

// Min returns the smallest key, if any.
func (m *Map[V]) Min() (string, V, bool) {
	n := m.root
	for !n.leaf() {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var zero V
		return "", zero, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key, if any.
func (m *Map[V]) Max() (string, V, bool) {
	n := m.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		var zero V
		return "", zero, false
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
}

// depth returns the height of the tree (used by invariant checks in tests).
func (m *Map[V]) depth() int {
	d := 1
	for n := m.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}
