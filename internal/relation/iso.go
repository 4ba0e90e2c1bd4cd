package relation

import "sort"

// Instance is a plain map-of-relations snapshot used by oracles and tests:
// relation name -> set of tuples keyed by their order-preserving encoding.
// Every ordered read sorts the keys; anything on a data path (the query
// overlay, mediator relations) uses Set instead.
type Instance map[string]map[string]Tuple

// NewInstance returns an empty instance.
func NewInstance() Instance { return make(Instance) }

// Insert adds a tuple, reporting whether it was new.
func (in Instance) Insert(rel string, t Tuple) bool {
	m := in[rel]
	if m == nil {
		m = make(map[string]Tuple)
		in[rel] = m
	}
	k := t.Key()
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = t.Clone()
	return true
}

// Has reports whether the tuple is present.
func (in Instance) Has(rel string, t Tuple) bool {
	_, ok := in[rel][t.Key()]
	return ok
}

// Tuples returns the tuples of a relation in deterministic (key) order.
func (in Instance) Tuples(rel string) []Tuple {
	m := in[rel]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Scan calls fn for every tuple of the relation in key order (fn returning
// false stops early), satisfying the cq.Source interface.
func (in Instance) Scan(rel string, fn func(Tuple) bool) {
	for _, t := range in.Tuples(rel) {
		if !fn(t) {
			return
		}
	}
}

// Size returns the total number of tuples across all relations.
func (in Instance) Size() int {
	n := 0
	for _, m := range in {
		n += len(m)
	}
	return n
}

// Clone deep-copies the instance.
func (in Instance) Clone() Instance {
	c := NewInstance()
	for rel, m := range in {
		cm := make(map[string]Tuple, len(m))
		for k, t := range m {
			cm[k] = t.Clone()
		}
		c[rel] = cm
	}
	return c
}

// EqualUpToNulls reports whether two instances contain the same tuples up to
// a consistent renaming of marked nulls. It performs a backtracking search
// for a bijection between the null labels of a and b that maps every tuple
// of a onto a tuple of b and vice versa. Instances produced by independent
// runs of the update algorithm differ only in null labels, so this is the
// equivalence the correctness oracle needs.
//
// The search is exponential in the worst case but instances in tests carry
// few distinct nulls per relation; a canonical-form fast path handles the
// common case where the two sides already agree.
func EqualUpToNulls(a, b Instance) bool {
	// Quick size/shape checks.
	if len(nonEmpty(a)) != len(nonEmpty(b)) {
		return false
	}
	for rel, m := range a {
		if len(m) != len(b[rel]) {
			return false
		}
	}
	for rel, m := range b {
		if len(m) != len(a[rel]) {
			return false
		}
	}
	// Fast path: identical canonical renamings (order-of-first-occurrence
	// over a deterministic traversal). This succeeds whenever both sides
	// minted nulls in the same structural positions.
	if canonicalForm(a) == canonicalForm(b) {
		return true
	}
	// Full check: homomorphism in both directions that is injective on
	// nulls. Because both instances have equal cardinalities per relation,
	// mutual injective-on-nulls containment implies isomorphism.
	return nullEmbeds(a, b) && nullEmbeds(b, a)
}

func nonEmpty(in Instance) map[string]bool {
	out := make(map[string]bool)
	for rel, m := range in {
		if len(m) > 0 {
			out[rel] = true
		}
	}
	return out
}

// canonicalForm renames nulls by first occurrence in a sorted traversal and
// returns a string fingerprint.
func canonicalForm(in Instance) string {
	rels := make([]string, 0, len(in))
	for rel, m := range in {
		if len(m) > 0 {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	rename := make(map[string]string)
	var buf []byte
	for _, rel := range rels {
		buf = append(buf, rel...)
		buf = append(buf, 0)
		for _, t := range in.Tuples(rel) {
			ct := make(Tuple, len(t))
			for i, v := range t {
				if v.Kind == KindNull {
					nl, ok := rename[v.Str]
					if !ok {
						nl = "n" + itoa(len(rename))
						rename[v.Str] = nl
					}
					ct[i] = Null(nl)
				} else {
					ct[i] = v
				}
			}
			buf = EncodeTuple(buf, ct)
		}
	}
	return string(buf)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

// nullEmbeds reports whether there is a mapping of a's null labels to b's
// values (injective on nulls, identity on constants) under which every tuple
// of a appears in b.
func nullEmbeds(a, b Instance) bool {
	// Collect a's tuples as a worklist ordered by nulls-per-tuple so that
	// heavily-constrained tuples bind first.
	type item struct {
		rel string
		t   Tuple
	}
	var work []item
	for rel, m := range a {
		for _, t := range m {
			work = append(work, item{rel, t})
		}
	}
	sort.Slice(work, func(i, j int) bool {
		ni, nj := countNulls(work[i].t), countNulls(work[j].t)
		if ni != nj {
			return ni < nj
		}
		if work[i].rel != work[j].rel {
			return work[i].rel < work[j].rel
		}
		return work[i].t.Compare(work[j].t) < 0
	})

	assign := make(map[string]Value) // a-null label -> b value
	used := make(map[Value]bool)     // b null values already targeted

	var solve func(i int) bool
	solve = func(i int) bool {
		if i == len(work) {
			return true
		}
		it := work[i]
		cands := b[it.rel]
		// Try every candidate tuple in b's relation.
		for _, bt := range cands {
			if len(bt) != len(it.t) {
				continue
			}
			// Attempt to unify it.t with bt under current assignment.
			var newly []string
			ok := true
			for k := range it.t {
				av, bv := it.t[k], bt[k]
				if av.Kind != KindNull {
					if av != bv {
						ok = false
						break
					}
					continue
				}
				if cur, bound := assign[av.Str]; bound {
					if cur != bv {
						ok = false
						break
					}
					continue
				}
				// a-null must map to a b-null (injective, null-to-null):
				// mapping a null to a constant would make a strictly more
				// informative than b, which cannot happen between two
				// sound+complete results; requiring null-to-null keeps the
				// relation symmetric.
				if bv.Kind != KindNull || used[bv] {
					ok = false
					break
				}
				assign[av.Str] = bv
				used[bv] = true
				newly = append(newly, av.Str)
			}
			if ok && solve(i+1) {
				return true
			}
			for _, l := range newly {
				used[assign[l]] = false
				delete(assign, l)
			}
		}
		return false
	}
	return solve(0)
}

func countNulls(t Tuple) int {
	n := 0
	for _, v := range t {
		if v.Kind == KindNull {
			n++
		}
	}
	return n
}
