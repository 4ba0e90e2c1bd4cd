// Package cq implements conjunctive queries and GLAV coordination rules:
// the logical language of coDB. It provides the AST, a parser for the
// datalog-like concrete syntax, an evaluator (hash-join and nested-loop
// strategies), semi-naive delta evaluation, dependency analysis, and a
// containment check via the canonical-database homomorphism test.
package cq

import (
	"fmt"
	"strings"

	"codb/internal/relation"
)

// Term is either a variable or a constant.
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant value; meaningful only when Var == "".
	Const relation.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{Const: v} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in concrete syntax.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const.String()
}

// Atom is a relational atom R(t1, ..., tn).
type Atom struct {
	Rel   string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, terms ...Term) Atom { return Atom{Rel: rel, Terms: terms} }

// Vars appends the distinct variables of the atom to dst, in order of first
// occurrence.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Terms {
		if t.IsVar() && !contains(dst, t.Var) {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// String renders the atom.
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators permitted in rule bodies and query bodies.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Eval applies the operator to two values. Comparisons involving marked
// nulls are false (a null's value is unknown), except = and != which use
// label identity so that nulls can still join consistently.
func (o CmpOp) Eval(l, r relation.Value) bool {
	if l.Kind == relation.KindNull || r.Kind == relation.KindNull {
		switch o {
		case OpEq:
			return l == r
		case OpNe:
			return l != r
		default:
			return false
		}
	}
	c := l.Compare(r)
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// Comparison is a predicate "l op r" over terms.
type Comparison struct {
	Op   CmpOp
	L, R Term
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Vars appends the distinct variables of the comparison to dst.
func (c Comparison) Vars(dst []string) []string {
	for _, t := range []Term{c.L, c.R} {
		if t.IsVar() && !contains(dst, t.Var) {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// EvalComparisons reports whether a binding tuple, laid out in the given
// variable order, satisfies every comparison. Variables not present in vars
// (and positions past the end of the binding) fail the comparison — callers
// validate variable coverage up front (e.g. against a rule's frontier), so
// a mismatch here means a malformed binding, which must not pass a filter.
func EvalComparisons(cmps []Comparison, vars []string, binding relation.Tuple) bool {
	resolve := func(t Term) (relation.Value, bool) {
		if !t.IsVar() {
			return t.Const, true
		}
		for i, v := range vars {
			if v == t.Var {
				if i >= len(binding) {
					return relation.Value{}, false
				}
				return binding[i], true
			}
		}
		return relation.Value{}, false
	}
	for _, c := range cmps {
		l, ok := resolve(c.L)
		if !ok {
			return false
		}
		r, ok := resolve(c.R)
		if !ok {
			return false
		}
		if !c.Op.Eval(l, r) {
			return false
		}
	}
	return true
}

// Query is a conjunctive query with one head atom, a body of relational
// atoms, and comparison predicates.
type Query struct {
	Head Atom
	Body []Atom
	Cmps []Comparison
}

// String renders the query in concrete syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Head.String())
	b.WriteString(" :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	for _, c := range q.Cmps {
		b.WriteString(", ")
		b.WriteString(c.String())
	}
	return b.String()
}

// BodyVars returns the distinct variables of the body atoms in order of
// first occurrence.
func (q *Query) BodyVars() []string {
	var vars []string
	for _, a := range q.Body {
		vars = a.Vars(vars)
	}
	return vars
}

// Validate checks query safety: a nonempty body, every head variable bound
// by the body, and every comparison variable bound by the body.
func (q *Query) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: query %s has an empty body", q.Head.Rel)
	}
	bodyVars := q.BodyVars()
	for _, t := range q.Head.Terms {
		if t.IsVar() && !contains(bodyVars, t.Var) {
			return fmt.Errorf("cq: head variable %s not bound by the body", t.Var)
		}
	}
	for _, c := range q.Cmps {
		for _, v := range c.Vars(nil) {
			if !contains(bodyVars, v) {
				return fmt.Errorf("cq: comparison variable %s not bound by the body", v)
			}
		}
	}
	return nil
}

// Relations returns the distinct relation names referenced by the body.
func (q *Query) Relations() []string {
	var rels []string
	for _, a := range q.Body {
		if !contains(rels, a.Rel) {
			rels = append(rels, a.Rel)
		}
	}
	return rels
}

// Rule is a GLAV coordination rule: an inclusion of conjunctive queries.
// The body is evaluated at the Source node; for each result, the Head atoms
// are asserted at the Target node, with existential variables (head
// variables not bound by the body) instantiated by fresh marked nulls.
type Rule struct {
	// ID identifies the rule network-wide (e.g. "r1").
	ID string
	// Target is the importing node (head side); Source is the exporting
	// acquaintance (body side).
	Target, Source string
	Head           []Atom
	Body           []Atom
	Cmps           []Comparison
}

// Frontier returns the head variables bound by the body (shared variables),
// in order of first occurrence in the head.
func (r *Rule) Frontier() []string {
	bodyVars := r.bodyVars()
	var out []string
	for _, a := range r.Head {
		for _, t := range a.Terms {
			if t.IsVar() && contains(bodyVars, t.Var) && !contains(out, t.Var) {
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// Existentials returns the head variables not bound by the body.
func (r *Rule) Existentials() []string {
	bodyVars := r.bodyVars()
	var out []string
	for _, a := range r.Head {
		for _, t := range a.Terms {
			if t.IsVar() && !contains(bodyVars, t.Var) && !contains(out, t.Var) {
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// Injective reports whether the rule's body is a single atom all of whose
// variables reach the head — a copy, a selection or a reordering, not a
// projection like x, z <- data(x, y). Its frontier bindings then stand one
// to one for the body tuples that match: distinct tuples, distinct
// bindings.
func (r *Rule) Injective() bool {
	return len(r.Body) == 1 && injective(&r.Body[0], r.Head)
}

// injective reports whether every variable of atom a occurs in the head
// atoms. A tuple matching a is fixed by its variables' values — the atom's
// constants and repeated variables fix the other positions — so projecting
// the matches onto head terms that keep every variable loses nothing.
func injective(a *Atom, head []Atom) bool {
	for _, t := range a.Terms {
		if t.IsVar() && !occurs(t.Var, head) {
			return false
		}
	}
	return true
}

func occurs(v string, atoms []Atom) bool {
	for _, a := range atoms {
		for _, t := range a.Terms {
			if t.IsVar() && t.Var == v {
				return true
			}
		}
	}
	return false
}

func (r *Rule) bodyVars() []string {
	var vars []string
	for _, a := range r.Body {
		vars = a.Vars(vars)
	}
	return vars
}

// HeadRelations returns the distinct relation names written by the head.
func (r *Rule) HeadRelations() []string {
	var rels []string
	for _, a := range r.Head {
		if !contains(rels, a.Rel) {
			rels = append(rels, a.Rel)
		}
	}
	return rels
}

// BodyRelations returns the distinct relation names read by the body.
func (r *Rule) BodyRelations() []string {
	var rels []string
	for _, a := range r.Body {
		if !contains(rels, a.Rel) {
			rels = append(rels, a.Rel)
		}
	}
	return rels
}

// Validate checks rule well-formedness: nonempty head and body and every
// comparison variable bound by the body. (Existential head variables are
// legal; that is the point of GLAV.)
func (r *Rule) Validate() error {
	if len(r.Head) == 0 {
		return fmt.Errorf("cq: rule %s has an empty head", r.ID)
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("cq: rule %s has an empty body", r.ID)
	}
	bodyVars := r.bodyVars()
	for _, c := range r.Cmps {
		for _, v := range c.Vars(nil) {
			if !contains(bodyVars, v) {
				return fmt.Errorf("cq: rule %s: comparison variable %s not bound by the body", r.ID, v)
			}
		}
	}
	return nil
}

// String renders the rule in concrete syntax:
// "target.h(x) <- source.b(x, y), y > 0".
func (r *Rule) String() string {
	var b strings.Builder
	for i, a := range r.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		if r.Target != "" {
			b.WriteString(r.Target)
			b.WriteByte('.')
		}
		b.WriteString(a.String())
	}
	b.WriteString(" <- ")
	for i, a := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		if r.Source != "" {
			b.WriteString(r.Source)
			b.WriteByte('.')
		}
		b.WriteString(a.String())
	}
	for _, c := range r.Cmps {
		b.WriteString(", ")
		b.WriteString(c.String())
	}
	return b.String()
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
