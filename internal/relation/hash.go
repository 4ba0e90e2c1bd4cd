package relation

import (
	"hash/maphash"
	"math"
)

// hashSeed keys the string hash; a per-process seed keeps crafted strings
// from piling into one chain.
var hashSeed = maphash.MakeSeed()

// mix folds x into the running hash h.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// Hash folds v into the running hash h. It agrees with Equal: equal values
// hash alike, so a float hashes by its bits (-0.0 and +0.0 apart, every NaN
// bit pattern with itself), an int by its value, a string or null label by
// its bytes, each with its kind mixed in. Neither a map[Value] key nor
// maphash.Comparable would do, as NaN != NaN under ==.
func (v Value) Hash(h uint64) uint64 {
	var x uint64
	switch v.Kind {
	case KindInt:
		x = uint64(v.Int)
	case KindFloat:
		x = math.Float64bits(v.Float)
	case KindBool:
		if v.Bool {
			x = 1
		}
	case KindNull, KindString:
		x = maphash.String(hashSeed, v.Str)
	}
	return mix(mix(h, uint64(v.Kind)), x)
}

// Hash returns a hash of the tuple that agrees with Equal.
func (t Tuple) Hash() uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = v.Hash(h)
	}
	return h
}

// TupleSet is a set of tuples under Equal, in insertion order: a hash →
// index chain over the members, every hash hit verified by Tuple.Equal, so
// no tuple is keyed. The zero TupleSet is empty and ready to use.
type TupleSet struct {
	// Tuples are the members in insertion order. The set keeps them as
	// they are added, without copying.
	Tuples []Tuple
	heads  []int32 // per slot: 1 + index of the first member in its chain, or 0
	links  []tupleLink
}

type tupleLink struct {
	hash uint64
	next int32 // 1 + index of the next member in the chain, or 0
}

// Grow makes room for n more members without rehashing.
func (s *TupleSet) Grow(n int) {
	n += len(s.Tuples)
	if n > len(s.heads) {
		s.rehash(n)
	}
	if cap(s.Tuples) < n {
		s.Tuples = append(make([]Tuple, 0, n), s.Tuples...)
		s.links = append(make([]tupleLink, 0, n), s.links...)
	}
}

// Add inserts t unless an equal tuple is a member, and reports whether it
// did.
func (s *TupleSet) Add(t Tuple) bool {
	h := t.Hash()
	if len(s.heads) > 0 {
		for i := s.heads[h&uint64(len(s.heads)-1)]; i != 0; i = s.links[i-1].next {
			if s.links[i-1].hash == h && s.Tuples[i-1].Equal(t) {
				return false
			}
		}
	}
	s.insert(t, h)
	return true
}

// insert adds t, with hash h, as a member without looking for it.
func (s *TupleSet) insert(t Tuple, h uint64) {
	if len(s.Tuples) >= len(s.heads) {
		s.rehash(2*len(s.Tuples) + 1)
	}
	slot := h & uint64(len(s.heads)-1)
	s.Tuples = append(s.Tuples, t)
	s.links = append(s.links, tupleLink{hash: h, next: s.heads[slot]})
	s.heads[slot] = int32(len(s.Tuples))
}

// rehash sizes the slot table to the power of two at or above n and relinks
// every member from its stored hash.
func (s *TupleSet) rehash(n int) {
	size := 8
	for size < n {
		size *= 2
	}
	s.heads = make([]int32, size)
	for i := range s.links {
		slot := s.links[i].hash & uint64(size-1)
		s.links[i].next = s.heads[slot]
		s.heads[slot] = int32(i + 1)
	}
}
