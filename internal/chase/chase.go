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

// Applier instantiates the head of a single rule. It caches the head facts
// per frontier binding, so repeated deliveries are cheap and minting is
// stable within a process (across processes, stability comes from the
// deterministic labels).
type Applier struct {
	rule     *cq.Rule
	opts     Options
	frontier []string
	exist    []string
	memo     map[string][]Fact
	skipMemo map[string]bool
	// Skipped counts frontier bindings dropped by the depth bound since
	// construction.
	Skipped int
}

// NewApplier validates the rule and prepares an applier for it.
func NewApplier(rule *cq.Rule, opts Options) (*Applier, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	return &Applier{
		rule:     rule,
		opts:     opts,
		frontier: rule.Frontier(),
		exist:    rule.Existentials(),
		memo:     make(map[string][]Fact),
		skipMemo: make(map[string]bool),
	}, nil
}

// Rule returns the applier's rule.
func (a *Applier) Rule() *cq.Rule { return a.rule }

// Frontier returns the frontier variable order the applier expects bindings
// in (the order of first occurrence in the rule head).
func (a *Applier) Frontier() []string { return a.frontier }

// Facts instantiates the head for every frontier binding, returning the
// facts to assert at the target node. Bindings beyond the depth bound are
// skipped and counted.
func (a *Applier) Facts(bindings []relation.Tuple) []Fact {
	out := make([]Fact, 0, len(bindings)*len(a.rule.Head))
	for _, b := range bindings {
		out = append(out, a.factsFor(b)...)
	}
	return out
}

func (a *Applier) factsFor(binding relation.Tuple) []Fact {
	key := binding.Key()
	if fs, ok := a.memo[key]; ok {
		return fs
	}
	if a.skipMemo[key] {
		return nil
	}
	env := make(map[string]relation.Value, len(a.frontier)+len(a.exist))
	depth := 0
	for i, v := range a.frontier {
		if i >= len(binding) {
			// Malformed binding; drop it rather than panic (it may come
			// from a remote peer).
			a.skipMemo[key] = true
			a.Skipped++
			return nil
		}
		env[v] = binding[i]
		if d := NullDepth(binding[i]); d > depth {
			depth = d
		}
	}
	if len(a.exist) > 0 {
		newDepth := depth + 1
		if a.opts.MaxDepth > 0 && newDepth > a.opts.MaxDepth {
			a.skipMemo[key] = true
			a.Skipped++
			return nil
		}
		for _, z := range a.exist {
			env[z] = mintNull(a.rule.ID, z, key, newDepth)
		}
	}
	facts := make([]Fact, 0, len(a.rule.Head))
	for _, h := range a.rule.Head {
		t := make(relation.Tuple, len(h.Terms))
		for i, term := range h.Terms {
			if term.IsVar() {
				t[i] = env[term.Var]
			} else {
				t[i] = term.Const
			}
		}
		facts = append(facts, Fact{Rel: h.Rel, Tuple: t})
	}
	a.memo[key] = facts
	return facts
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
