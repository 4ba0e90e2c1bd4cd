package relation

// Range is an interval of values at one attribute position, held as the
// interval [from, to) of their order-preserving encodings (to == "": no upper
// bound). The zero Range holds every value. Because the value encoding is
// prefix-free, a key that starts with a value's encoding — a tuple key at
// position 0, or a (value ‖ tuple key) secondary key — lies in [from, to)
// exactly when the value's encoding does, so one Ascend over an index
// enumerates the range, in index order.
//
// Within the int, string and bool kinds the encoding order is Value.Compare,
// and across kinds both order by kind tag; a bound at such a value therefore
// keeps every value the comparison it came from admits. Floats are the
// exception (-0.0 and +0.0 encode apart but compare equal, NaN compares
// equal to every float), so callers must not bound a range at a float.
type Range struct{ from, to string }

// Point returns the range holding v alone: the values whose encoding is
// v's, i.e. v itself.
func Point(v Value) Range {
	var buf [64]byte
	b := EncodeValue(buf[:0], v)
	n := len(b)
	// Both bounds in one allocation: v's encoding and its successor.
	b = append(b, b...)
	s := string(b[:n+incrementLast(b[n:])])
	return Range{from: s[:n], to: s[n:]}
}

// AtLeast narrows r to the values at or above v.
func (r Range) AtLeast(v Value) Range { return r.above(string(EncodeValue(nil, v))) }

// Above narrows r to the values strictly above v.
func (r Range) Above(v Value) Range { return r.above(Point(v).to) }

// AtMost narrows r to the values at or below v.
func (r Range) AtMost(v Value) Range { return r.below(Point(v).to) }

// Below narrows r to the values strictly below v.
func (r Range) Below(v Value) Range { return r.below(string(EncodeValue(nil, v))) }

func (r Range) above(from string) Range {
	r.from = max(r.from, from)
	return r
}

func (r Range) below(to string) Range {
	if r.to == "" || to < r.to {
		r.to = to
	}
	return r
}

// Empty reports whether the range holds no value.
func (r Range) Empty() bool { return r.to != "" && r.from >= r.to }

// Keys returns the key interval [from, to) the range covers in an index
// whose keys begin with the value's encoding; to == "" means no upper bound.
func (r Range) Keys() (from, to string) { return r.from, r.to }

// incrementLast turns p into the smallest string above every string with
// prefix p, in place, and returns its length: the last byte that is not 0xFF
// goes up by one and the rest is cut. A value encoding begins with its kind
// tag, which is never 0xFF, so the result is never empty.
func incrementLast(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xFF {
			p[i]++
			return i + 1
		}
	}
	return 0
}
