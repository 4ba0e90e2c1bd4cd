package cq

// Dependency analysis between coordination rules, used by the peer runtime
// to decide which incoming links must be recomputed when an outgoing link
// delivers new data, and which outgoing links are relevant to a query.
//
// Terminology (paper §3): at a node, an incoming link i *depends on* an
// outgoing link o iff the head of o writes a relation that a body subgoal of
// i reads. Equivalently, o is *relevant for* i.

// DependsOn reports whether incoming rule `in` (body over this node's
// schema) depends on outgoing rule `out` (head over this node's schema).
func DependsOn(in, out *Rule) bool {
	heads := out.HeadRelations()
	for _, b := range in.BodyRelations() {
		if contains(heads, b) {
			return true
		}
	}
	return false
}

// Closure computes the transitive closure of relation relevance inside one
// node: starting from seed relations, repeatedly adds the body relations of
// every local rule projection... coDB nodes do not rewrite locally, so the
// local closure is just the seed set; cross-node closure is performed by the
// query propagation itself (each hop recomputes relevance against its own
// links). Closure is provided for the local planner: given seed relations
// and the node's outgoing rules, it returns the set of outgoing rules whose
// heads intersect the seeds.
func Closure(seeds []string, outgoing []*Rule) []*Rule {
	var out []*Rule
	for _, r := range outgoing {
		for _, h := range r.Head {
			if contains(seeds, h.Rel) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}
