package chase

import (
	"fmt"

	"codb/internal/cq"
	"codb/internal/relation"
)

// Fixpoint is the centralised oracle: it chases all rules over all node
// instances to a fixpoint, exactly the state the distributed global update
// must converge to. It is the correctness reference of the difftest and the
// oracle tests.
//
// Instances are keyed by node name; a rule reads Body relations from
// start[rule.Source] and writes Head facts into the result for rule.Target.
// The deterministic null labels make the fixpoint independent of rule
// application order.
type FixpointStats struct {
	// Rounds is the number of full passes over the rule set.
	Rounds int
	// FactsAdded is the number of new tuples inserted across all nodes.
	FactsAdded int
}

// Fixpoint runs the oracle. The input map is not modified.
func Fixpoint(rules []*cq.Rule, start map[string]relation.Instance, opts Options) (map[string]relation.Instance, FixpointStats, error) {
	state := make(map[string]relation.Instance, len(start))
	for node, in := range start {
		state[node] = in.Clone()
	}
	appliers := make([]*Applier, len(rules))
	for i, r := range rules {
		a, err := NewApplier(r, opts)
		if err != nil {
			return nil, FixpointStats{}, fmt.Errorf("chase: rule %s: %w", r.ID, err)
		}
		appliers[i] = a
		if state[r.Source] == nil {
			state[r.Source] = relation.NewInstance()
		}
		if state[r.Target] == nil {
			state[r.Target] = relation.NewInstance()
		}
	}

	var stats FixpointStats
	for {
		stats.Rounds++
		changed := false
		for i, r := range rules {
			facts, err := Apply(r, state[r.Source], appliers[i])
			if err != nil {
				return nil, stats, fmt.Errorf("chase: rule %s: %w", r.ID, err)
			}
			target := state[r.Target]
			for _, f := range facts {
				if target.Insert(f.Rel, f.Tuple) {
					stats.FactsAdded++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return state, stats, nil
}

// FixpointSemiNaive is the delta-driven variant of the oracle, mirroring
// what the distributed algorithm does: after the first full round, rules
// re-fire only against the tuples newly added to their body relations. Its
// results must equal Fixpoint's, which the oracle tests check.
func FixpointSemiNaive(rules []*cq.Rule, start map[string]relation.Instance, opts Options) (map[string]relation.Instance, FixpointStats, error) {
	state := make(map[string]relation.Instance, len(start))
	for node, in := range start {
		state[node] = in.Clone()
	}
	appliers := make([]*Applier, len(rules))
	for i, r := range rules {
		a, err := NewApplier(r, opts)
		if err != nil {
			return nil, FixpointStats{}, fmt.Errorf("chase: rule %s: %w", r.ID, err)
		}
		appliers[i] = a
		if state[r.Source] == nil {
			state[r.Source] = relation.NewInstance()
		}
		if state[r.Target] == nil {
			state[r.Target] = relation.NewInstance()
		}
	}

	var stats FixpointStats
	// deltas[node][rel] = tuples added in the previous round.
	deltas := make(map[string]map[string][]relation.Tuple)
	// Round 1: full evaluation.
	stats.Rounds++
	next := make(map[string]map[string][]relation.Tuple)
	addFact := func(node string, f Fact) {
		if state[node].Insert(f.Rel, f.Tuple) {
			stats.FactsAdded++
			if next[node] == nil {
				next[node] = make(map[string][]relation.Tuple)
			}
			next[node][f.Rel] = append(next[node][f.Rel], f.Tuple)
		}
	}
	for i, r := range rules {
		facts, err := Apply(r, state[r.Source], appliers[i])
		if err != nil {
			return nil, stats, err
		}
		for _, f := range facts {
			addFact(r.Target, f)
		}
	}
	deltas, next = next, nil

	for len(deltas) > 0 {
		stats.Rounds++
		next = make(map[string]map[string][]relation.Tuple)
		for i, r := range rules {
			nodeDeltas := deltas[r.Source]
			if nodeDeltas == nil {
				continue
			}
			for _, rel := range r.BodyRelations() {
				d := nodeDeltas[rel]
				if len(d) == 0 {
					continue
				}
				bindings, err := BindingsDelta(r, state[r.Source], rel, d, opts)
				if err != nil {
					return nil, stats, err
				}
				for _, f := range appliers[i].Facts(bindings) {
					addFact(r.Target, f)
				}
			}
		}
		deltas, next = next, nil
	}
	return state, stats, nil
}
