// Package btree implements an in-memory B+tree keyed by byte strings, used
// by the storage engine for primary and secondary indexes. Keys are compared
// bytewise, which matches relational order for keys produced by the
// order-preserving codec in internal/relation.
//
// The tree supports insert, lookup, delete with rebalancing, and ordered
// range scans. It is not safe for concurrent mutation; the storage layer
// serialises writers.
package btree

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 items.
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
}

type node[V any] struct {
	keys     []string
	vals     []V        // leaf only, parallel to keys
	children []*node[V] // interior only, len(children) == len(keys)+1
	next     *node[V]   // leaf chain for range scans
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

// newLeaf returns an empty leaf whose arrays already have room for a full
// node plus the one item that overflows it, so inserts never regrow them.
func newLeaf[V any]() *node[V] {
	return &node[V]{keys: make([]string, 0, maxItems+1), vals: make([]V, 0, maxItems+1)}
}

// New returns an empty tree.
func New[V any]() *Map[V] {
	return &Map[V]{root: newLeaf[V]()}
}

// Len returns the number of stored keys.
func (m *Map[V]) Len() int { return m.len }

// Get returns the value stored for key.
func (m *Map[V]) Get(key string) (V, bool) {
	n := m.root
	for !n.leaf() {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++ // equal separator: key lives in the right subtree
		}
		n = n.children[i]
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
	old, present, splitKey, splitNode := m.insert(m.root, key, value, overwrite)
	if splitNode != nil {
		m.root = &node[V]{
			keys:     []string{splitKey},
			children: []*node[V]{m.root, splitNode},
		}
	}
	if !present {
		m.len++
	}
	return old, present
}

// insert adds key to the subtree at n; a key already present keeps its value
// unless overwrite is set. If n splits, it returns the separator key and the
// new right sibling.
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
			splitKey, splitNode = n.splitLeaf()
		}
		return old, false, splitKey, splitNode
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	old, present, sk, sn := m.insert(n.children[i], key, value, overwrite)
	if sn != nil {
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sk
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = sn
		if len(n.keys) > maxItems {
			splitKey, splitNode = n.splitInterior()
		}
	}
	return old, present, splitKey, splitNode
}

// splitLeaf splits an over-full leaf; the separator is the first key of the
// right half (B+tree style: separator is duplicated into the parent, data
// stays in leaves).
func (n *node[V]) splitLeaf() (string, *node[V]) {
	mid := len(n.keys) / 2
	right := newLeaf[V]()
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	right.next = n.next
	// The left half keeps its full-capacity arrays; the vacated tail is
	// cleared so it pins neither keys nor values.
	clear(n.keys[mid:])
	clear(n.vals[mid:])
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = right
	return right.keys[0], right
}

// splitInterior splits an over-full interior node; the middle key moves up.
func (n *node[V]) splitInterior() (string, *node[V]) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node[V]{
		keys:     append([]string(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes key, returning its value if present.
func (m *Map[V]) Delete(key string) (V, bool) {
	old, removed := m.remove(m.root, key)
	if removed {
		m.len--
		if !m.root.leaf() && len(m.root.keys) == 0 {
			m.root = m.root.children[0]
		}
	}
	return old, removed
}

func (m *Map[V]) remove(n *node[V], key string) (V, bool) {
	if n.leaf() {
		i := search(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			var zero V
			return zero, false
		}
		old := n.vals[i]
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return old, true
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	old, removed := m.remove(n.children[i], key)
	if removed && len(n.children[i].keys) < minItems {
		n.rebalance(i)
	}
	return old, removed
}

// rebalance restores the minimum-occupancy invariant of child i by borrowing
// from or merging with a sibling.
func (n *node[V]) rebalance(i int) {
	child := n.children[i]
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].keys) > minItems {
		left := n.children[i-1]
		if child.leaf() {
			k := left.keys[len(left.keys)-1]
			v := left.vals[len(left.vals)-1]
			left.keys = left.keys[:len(left.keys)-1]
			left.vals = left.vals[:len(left.vals)-1]
			child.keys = append([]string{k}, child.keys...)
			child.vals = append([]V{v}, child.vals...)
			n.keys[i-1] = child.keys[0]
		} else {
			k := left.keys[len(left.keys)-1]
			c := left.children[len(left.children)-1]
			left.keys = left.keys[:len(left.keys)-1]
			left.children = left.children[:len(left.children)-1]
			child.keys = append([]string{n.keys[i-1]}, child.keys...)
			child.children = append([]*node[V]{c}, child.children...)
			n.keys[i-1] = k
		}
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].keys) > minItems {
		right := n.children[i+1]
		if child.leaf() {
			child.keys = append(child.keys, right.keys[0])
			child.vals = append(child.vals, right.vals[0])
			right.keys = right.keys[1:]
			right.vals = right.vals[1:]
			n.keys[i] = right.keys[0]
		} else {
			child.keys = append(child.keys, n.keys[i])
			child.children = append(child.children, right.children[0])
			n.keys[i] = right.keys[0]
			right.keys = right.keys[1:]
			right.children = right.children[1:]
		}
		return
	}
	// Merge with a sibling.
	if i > 0 {
		i-- // merge children[i] (left) and children[i+1] (child)
	}
	left, right := n.children[i], n.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Ascend calls fn for every key in [from, to) in ascending order; an empty
// `to` means "until the end". fn returning false stops the scan.
func (m *Map[V]) Ascend(from, to string, fn func(key string, value V) bool) {
	n := m.root
	for !n.leaf() {
		i := search(n.keys, from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		n = n.children[i]
	}
	i := search(n.keys, from)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if to != "" && n.keys[i] >= to {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// AscendAll scans every key in ascending order.
func (m *Map[V]) AscendAll(fn func(key string, value V) bool) {
	m.Ascend("", "", fn)
}

// AscendPrefix scans every key with the given prefix in ascending order.
func (m *Map[V]) AscendPrefix(prefix string, fn func(key string, value V) bool) {
	if prefix == "" {
		m.Ascend("", "", fn)
		return
	}
	m.Ascend(prefix, "", func(k string, v V) bool {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return false
		}
		return fn(k, v)
	})
}

// Iterator is a pull-style cursor over the tree in ascending key order,
// built on the leaf chain. It lets callers merge several trees (the sharded
// storage engine's per-shard indexes) without callback inversion. The tree
// must not be mutated while an iterator is live; the storage layer holds
// the owning shard's lock for the duration of a merge.
type Iterator[V any] struct {
	n *node[V]
	i int
}

// Iter returns an iterator positioned at the smallest key >= from (the
// whole tree for from == "").
func (m *Map[V]) Iter(from string) *Iterator[V] {
	n := m.root
	for !n.leaf() {
		i := search(n.keys, from)
		if i < len(n.keys) && n.keys[i] == from {
			i++
		}
		n = n.children[i]
	}
	return &Iterator[V]{n: n, i: search(n.keys, from)}
}

// Next returns the current key/value and advances, or ok=false at the end.
func (it *Iterator[V]) Next() (key string, value V, ok bool) {
	for it.n != nil && it.i >= len(it.n.keys) {
		it.n = it.n.next
		it.i = 0
	}
	if it.n == nil {
		var zero V
		return "", zero, false
	}
	key, value = it.n.keys[it.i], it.n.vals[it.i]
	it.i++
	return key, value, true
}

// Peek returns the current key without advancing, or ok=false at the end.
func (it *Iterator[V]) Peek() (key string, ok bool) {
	for it.n != nil && it.i >= len(it.n.keys) {
		it.n = it.n.next
		it.i = 0
	}
	if it.n == nil {
		return "", false
	}
	return it.n.keys[it.i], true
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
