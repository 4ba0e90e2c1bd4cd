// Package chase applies GLAV coordination rules: the data-exchange step of
// coDB. Evaluating a rule's body over the source instance yields frontier
// bindings; for each binding the head atoms are instantiated, with
// existential head variables replaced by marked nulls.
//
// Null minting is deterministic ("Skolemized"): the null standing for
// existential variable z of rule r under frontier binding b has the label
//
//	d<depth>~<hash(r.ID, z, b)>
//
// so that independent executions — different peers, different message
// orders, the centralised oracle — mint the *same* null for the same
// derivation. This makes the chase confluent: the update algorithm's result
// is a well-defined least fixpoint, and tests can compare distributed and
// centralised results for plain equality.
//
// The embedded depth is the derivation depth: 1 + the maximum depth of any
// null occurring in the frontier binding. Rule sets whose chase diverges
// (non-weakly-acyclic existential cycles) are cut off at Options.MaxDepth;
// the cutoff is reported so callers can surface the approximation.
package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"codb/internal/cq"
	"codb/internal/relation"
)

// Options tunes rule application.
type Options struct {
	// MaxDepth bounds the null derivation depth; bindings that would mint
	// nulls deeper than this are skipped (counted, not applied).
	// 0 means unlimited.
	MaxDepth int
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
// no hashing, and a binding dropped by the depth bound is counted once. That
// memo lives as long as the applier; Fork starts an empty one for a scope of
// its own. A rule without existential variables keeps no memo at all.
type Applier struct {
	rule     *cq.Rule
	opts     Options
	frontier []string
	exist    []string
	heads    []headAtom
	width    int               // values in one binding's facts
	memo     map[string][]Fact // existential rules only
	skipMemo map[string]bool   // bindings already counted in Skipped
	// Skipped counts frontier bindings dropped by the depth bound (or for
	// being too short for the frontier) since construction, each once.
	Skipped int
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

// Fork returns an applier for the same rule with an empty memo and a zero
// Skipped count: a scope of its own — one session's, say — whose remembered
// bindings go when it is dropped. The compiled head is shared.
func (a *Applier) Fork() *Applier {
	f := *a
	f.skipMemo, f.Skipped = nil, 0
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

// Frontier returns the frontier variable order the applier expects bindings
// in (the order of first occurrence in the rule head).
func (a *Applier) Frontier() []string { return a.frontier }

// Facts instantiates the head for every frontier binding, returning the
// facts to assert at the target node. Bindings beyond the depth bound are
// skipped and counted. The tuples of one call are cut from one backing array,
// in binding order: one allocation, and neighbours in the delta stay
// neighbours in memory wherever the tuples end up stored.
func (a *Applier) Facts(bindings []relation.Tuple) []Fact {
	out := make([]Fact, 0, len(bindings)*len(a.heads))
	slab := make([]relation.Value, 0, len(bindings)*a.width)
	for _, b := range bindings {
		out, slab = a.appendFacts(out, slab, b)
	}
	return out
}

// skip counts a dropped binding, once per distinct binding.
func (a *Applier) skip(key string) {
	if a.skipMemo[key] {
		return
	}
	if a.skipMemo == nil {
		a.skipMemo = make(map[string]bool)
	}
	a.skipMemo[key] = true
	a.Skipped++
}

// appendFacts appends one binding's facts to out, taking the values of the
// tuples it builds from slab.
func (a *Applier) appendFacts(out []Fact, slab []relation.Value, binding relation.Tuple) ([]Fact, []relation.Value) {
	if len(binding) < len(a.frontier) {
		// Malformed binding; drop it rather than panic (it may come from a
		// remote peer).
		a.skip(binding.Key())
		return out, slab
	}
	var key string
	var nulls []relation.Value
	if len(a.exist) > 0 {
		key = binding.Key()
		if fs, ok := a.memo[key]; ok {
			return append(out, fs...), slab
		}
		depth := 1
		for _, v := range binding[:len(a.frontier)] {
			depth = max(depth, NullDepth(v)+1)
		}
		if a.opts.MaxDepth > 0 && depth > a.opts.MaxDepth {
			a.skip(key)
			return out, slab
		}
		nulls = make([]relation.Value, len(a.exist))
		for i, z := range a.exist {
			nulls[i] = mintNull(a.rule.ID, z, key, depth)
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
func mintNull(ruleID, varName, frontierKey string, depth int) relation.Value {
	h := sha256.Sum256([]byte(ruleID + "\x00" + varName + "\x00" + frontierKey))
	return relation.Null("d" + strconv.Itoa(depth) + "~" + hex.EncodeToString(h[:12]))
}

// NullDepth returns the derivation depth embedded in a marked null's label;
// non-nulls and foreign labels (user-minted nulls) have depth 0.
func NullDepth(v relation.Value) int {
	if v.Kind != relation.KindNull {
		return 0
	}
	label := v.NullLabel()
	if !strings.HasPrefix(label, "d") {
		return 0
	}
	i := strings.IndexByte(label, '~')
	if i < 2 {
		return 0
	}
	d, err := strconv.Atoi(label[1:i])
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Bindings evaluates the rule body over the source and returns the frontier
// bindings (the payload an exporting node ships to the importer).
func Bindings(rule *cq.Rule, src cq.Source, opts Options) ([]relation.Tuple, error) {
	return cq.EvalBindings(rule.Body, rule.Cmps, rule.Frontier(), src, opts.Eval)
}

// BindingsDelta is the semi-naive variant of Bindings: only derivations
// using at least one tuple of delta (for deltaRel) are produced.
func BindingsDelta(rule *cq.Rule, src cq.Source, deltaRel string, delta []relation.Tuple, opts Options) ([]relation.Tuple, error) {
	return cq.EvalDelta(rule.Body, rule.Cmps, rule.Frontier(), src, deltaRel, delta, opts.Eval)
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
