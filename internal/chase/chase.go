// Package chase applies GLAV coordination rules: the data-exchange step of
// coDB. Evaluating a rule's body over the source instance yields frontier
// bindings; for each binding the head atoms are instantiated, with
// existential head variables replaced by marked nulls.
//
// A rule transfers only what its source peer knows: the certain answers of
// its body. This is the epistemic reading of Franconi et al.'s
// characterisation of coDB networks (PAPERS.md). Bindings, BindingsDelta and
// BindingsSetDelta drop every frontier binding that holds a marked null, so
// an exporter never ships one; a null may still join or be projected away
// inside the body. Nulls therefore stay at the peer that minted them.
//
// That is why the chase terminates on every rule graph, cycles included:
// every shipped value comes from the finite active domain of the network's
// constants, so each peer receives finitely many bindings and mints
// finitely many nulls (one per existential variable, rule and binding).
//
// Null minting is deterministic ("Skolemized"): the null standing for
// existential variable z of rule r under frontier binding b has the label
//
//	hex(sha256(r.ID, z, b))[:24]
//
// so that independent executions — different peers, different message
// orders, the centralised oracle — mint the *same* null for the same
// derivation. This makes the chase confluent: the update algorithm's result
// is a well-defined least fixpoint, and tests can compare distributed and
// centralised results for plain equality.
package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"codb/internal/cq"
	"codb/internal/relation"
)

// Options tunes rule application.
type Options struct {
	// Eval selects the join strategy for body evaluation.
	Eval cq.EvalOptions
}

// Fact is one tuple for one relation of the target node.
type Fact struct {
	Rel   string
	Tuple relation.Tuple
}

// Applier instantiates the head of a single rule. The head is compiled once
// into slots — frontier position, constant, or existential variable — so a
// binding's facts are built straight from the binding, with no per-binding
// variable environment.
//
// Facts are a pure function of the binding (null labels are keyed by it), so
// nothing needs remembering for correctness. A rule with existential
// variables still keeps its facts per binding: a repeated delivery then costs
// no hashing. That memo lives as long as the applier; Fork starts an empty
// one for a scope of its own. A rule without existential variables keeps no
// memo at all.
type Applier struct {
	rule     *cq.Rule
	opts     Options
	frontier []string
	exist    []string
	heads    []headAtom
	width    int               // values in one binding's facts
	memo     map[string][]Fact // existential rules only
}

// headAtom is one compiled head atom.
type headAtom struct {
	rel   string
	slots []headSlot
}

// headSlot says where one head position takes its value from.
type headSlot struct {
	kind  slotKind
	index int            // frontier position or existential number
	value relation.Value // slotConst
}

type slotKind uint8

const (
	slotFrontier slotKind = iota
	slotExist
	slotConst
)

// NewApplier validates the rule and prepares an applier for it.
func NewApplier(rule *cq.Rule, opts Options) (*Applier, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	a := &Applier{rule: rule, opts: opts, frontier: rule.Frontier(), exist: rule.Existentials()}
	for _, h := range rule.Head {
		atom := headAtom{rel: h.Rel, slots: make([]headSlot, len(h.Terms))}
		for i, term := range h.Terms {
			switch {
			case !term.IsVar():
				atom.slots[i] = headSlot{kind: slotConst, value: term.Const}
			case slices.Contains(a.frontier, term.Var):
				atom.slots[i] = headSlot{kind: slotFrontier, index: slices.Index(a.frontier, term.Var)}
			default:
				atom.slots[i] = headSlot{kind: slotExist, index: slices.Index(a.exist, term.Var)}
			}
		}
		a.width += len(atom.slots)
		a.heads = append(a.heads, atom)
	}
	if len(a.exist) > 0 {
		a.memo = make(map[string][]Fact)
	}
	return a, nil
}

// Fork returns an applier for the same rule with an empty memo: a scope of
// its own — one session's, say — whose remembered bindings go when it is
// dropped. The compiled head is shared.
func (a *Applier) Fork() *Applier {
	f := *a
	if f.memo != nil {
		f.memo = make(map[string][]Fact)
	}
	return &f
}

// Rule returns the applier's rule.
func (a *Applier) Rule() *cq.Rule { return a.rule }

// Existential reports whether the rule has existential head variables, i.e.
// whether the applier keeps a memo.
func (a *Applier) Existential() bool { return len(a.exist) > 0 }

// Identity reports whether Facts would make each of the bindings into a
// fact equal to it: the rule's head is its frontier in order (one atom, no
// constants, no existentials) and every binding has the frontier's arity.
// A caller may then take the bindings as they are for the head relation's
// tuples.
func (a *Applier) Identity(bindings []relation.Tuple) bool {
	if len(a.heads) != 1 || len(a.heads[0].slots) != len(a.frontier) {
		return false
	}
	for i, sl := range a.heads[0].slots {
		if sl.kind != slotFrontier || sl.index != i {
			return false
		}
	}
	for _, b := range bindings {
		if len(b) != len(a.frontier) {
			return false
		}
	}
	return true
}

// Frontier returns the frontier variable order the applier expects bindings
// in (the order of first occurrence in the rule head).
func (a *Applier) Frontier() []string { return a.frontier }

// Facts instantiates the head for every frontier binding, returning the
// facts to assert at the target node. The tuples of one call are cut from
// one backing array, in binding order: one allocation, and neighbours in the
// delta stay neighbours in memory wherever the tuples end up stored.
func (a *Applier) Facts(bindings []relation.Tuple) []Fact {
	out := make([]Fact, 0, len(bindings)*len(a.heads))
	slab := make([]relation.Value, 0, len(bindings)*a.width)
	for _, b := range bindings {
		out, slab = a.appendFacts(out, slab, b)
	}
	return out
}

// appendFacts appends one binding's facts to out, taking the values of the
// tuples it builds from slab.
func (a *Applier) appendFacts(out []Fact, slab []relation.Value, binding relation.Tuple) ([]Fact, []relation.Value) {
	if len(binding) < len(a.frontier) {
		// Malformed binding; drop it rather than panic (it may come from a
		// remote peer).
		return out, slab
	}
	var key string
	var nulls []relation.Value
	if len(a.exist) > 0 {
		key = binding.Key()
		if fs, ok := a.memo[key]; ok {
			return append(out, fs...), slab
		}
		nulls = make([]relation.Value, len(a.exist))
		for i, z := range a.exist {
			nulls[i] = mintNull(a.rule.ID, z, key)
		}
	}
	first := len(out)
	for i := range a.heads {
		h := &a.heads[i]
		at := len(slab)
		for _, sl := range h.slots {
			switch sl.kind {
			case slotFrontier:
				slab = append(slab, binding[sl.index])
			case slotExist:
				slab = append(slab, nulls[sl.index])
			default:
				slab = append(slab, sl.value)
			}
		}
		out = append(out, Fact{Rel: h.rel, Tuple: relation.Tuple(slab[at:len(slab):len(slab)])})
	}
	if a.memo != nil {
		a.memo[key] = out[first:len(out):len(out)]
	}
	return out, slab
}

// mintNull builds the deterministic label for an existential witness.
func mintNull(ruleID, varName, frontierKey string) relation.Value {
	h := sha256.Sum256([]byte(ruleID + "\x00" + varName + "\x00" + frontierKey))
	return relation.Null(hex.EncodeToString(h[:12]))
}

// Bindings evaluates the rule body over the source and returns its certain
// frontier bindings, those that hold no marked null: the payload an
// exporting node ships to the importer.
func Bindings(rule *cq.Rule, src cq.Source, opts Options) ([]relation.Tuple, error) {
	return certain(cq.EvalBindings(rule.Body, rule.Cmps, rule.Frontier(), src, opts.Eval))
}

// BindingsDelta is the semi-naive variant of Bindings: only derivations
// using at least one tuple of delta (for deltaRel) are produced.
func BindingsDelta(rule *cq.Rule, src cq.Source, deltaRel string, delta []relation.Tuple, opts Options) ([]relation.Tuple, error) {
	return certain(cq.EvalDelta(rule.Body, rule.Cmps, rule.Frontier(), src, deltaRel, delta, opts.Eval))
}

// BindingsSetDelta is BindingsDelta for a delta that repeats no tuple
// (cq.EvalSetDelta): an injective rule's bindings are not keyed.
func BindingsSetDelta(rule *cq.Rule, src cq.Source, deltaRel string, delta []relation.Tuple, opts Options) ([]relation.Tuple, error) {
	return certain(cq.EvalSetDelta(rule.Body, rule.Cmps, rule.Frontier(), src, deltaRel, delta, opts.Eval))
}

// certain passes an evaluation's result through cq.FilterCertain.
func certain(bindings []relation.Tuple, err error) ([]relation.Tuple, error) {
	if err != nil {
		return nil, err
	}
	return cq.FilterCertain(bindings), nil
}

// Apply evaluates the rule end to end against a source instance and returns
// the facts for the target. Convenience for tests and the oracle.
func Apply(rule *cq.Rule, src cq.Source, a *Applier) ([]Fact, error) {
	bindings, err := Bindings(rule, src, a.opts)
	if err != nil {
		return nil, err
	}
	return a.Facts(bindings), nil
}

// String renders a fact.
func (f Fact) String() string { return fmt.Sprintf("%s%s", f.Rel, f.Tuple) }
