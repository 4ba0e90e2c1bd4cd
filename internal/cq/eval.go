package cq

import (
	"fmt"

	"codb/internal/relation"
)

// Source is any provider of relation scans: the storage engine, a
// relation.Instance, or a peer's overlay view all satisfy it. A scan
// delivers a set: no tuple twice (storage snapshots, relation.Set and
// relation.Instance key their tuples, and the session view shadows overlay
// tuples the snapshot holds), so an injective projection of one scan needs
// no deduplication. Tuples handed to fn are never mutated afterwards — by
// the source or by the evaluator — so the evaluator keeps them (join
// buckets, the delta slice) without cloning; a source must not reuse one
// tuple's backing array for the next.
type Source interface {
	Scan(rel string, fn func(relation.Tuple) bool)
}

// EqScanner is optionally implemented by sources that can enumerate the
// tuples with a fixed value at one position as an index probe — O(log n +
// matches), amortised — in the same (key) order Scan delivers them (storage
// snapshots and relation.Set do). The evaluator pushes the first constant
// of an atom down to it, and joins a small set of partial bindings against
// an atom by probing once per binding instead of hash-building the whole
// relation (see probeMaxOuter).
type EqScanner interface {
	ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool)
}

// Strategy selects the join algorithm.
type Strategy uint8

const (
	// HashJoin builds hash tables on shared variables (default).
	HashJoin Strategy = iota
	// NestedLoop re-scans each atom per partial binding; kept for the A3
	// ablation and as a correctness reference.
	NestedLoop
)

// EvalOptions tunes evaluation.
type EvalOptions struct {
	Strategy Strategy
}

// probeMaxOuter is the partial-binding count up to which a join step probes
// an EqScanner source once per binding instead of scanning the whole
// relation into hash buckets. Against a storage snapshot a probe step costs
// ~1.1 µs per binding all-in and bucketing ~0.27 µs per row of the relation
// (BenchmarkSelfJoinProbe: one binding against 20k rows, 8 µs against
// 13 ms); most of the per-binding cost — clone, unify, project — the hash
// step pays too, so with 128 bindings the two break even at a relation of
// about 64 rows (96 vs 93 µs), probing wins 1.4x at 256 rows and 40x at
// 20k, and loses 1.4x (36 µs) at 16. The relation's size is not known here,
// so the bound caps that loss rather than locating the crossover: batches of
// the session data path (64–128 fresh tuples per message) stay under it,
// full exports (thousands of bindings) keep the hash join.
const probeMaxOuter = 128

// Eval evaluates a conjunctive query over src and returns the deduplicated
// head tuples.
func Eval(q *Query, src Source, opts EvalOptions) ([]relation.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return evalProject(q.Head.Terms, q.Body, q.Cmps, src, nil, nil, false, opts)
}

// EvalBindings evaluates the body and projects the bindings onto outVars.
// Every outVar must be bound by the body.
func EvalBindings(body []Atom, cmps []Comparison, outVars []string, src Source, opts EvalOptions) ([]relation.Tuple, error) {
	var bodyVars []string
	for _, a := range body {
		bodyVars = a.Vars(bodyVars)
	}
	for _, v := range outVars {
		if !contains(bodyVars, v) {
			return nil, fmt.Errorf("cq: output variable %s not bound by the body", v)
		}
	}
	return evalProject(varTerms(outVars), body, cmps, src, nil, nil, false, opts)
}

// EvalDelta performs the semi-naive step: it evaluates the body with one
// occurrence of deltaRel at a time restricted to the delta tuples (all other
// atoms over the full source), unioning the projections. Sound and complete
// for "results that use at least one delta tuple". The delta may repeat
// tuples; the result does not.
func EvalDelta(body []Atom, cmps []Comparison, outVars []string, src Source, deltaRel string, delta []relation.Tuple, opts EvalOptions) ([]relation.Tuple, error) {
	return evalDelta(varTerms(outVars), body, cmps, src, deltaRel, delta, false, opts)
}

// EvalSetDelta is EvalDelta for a delta that is a set — no tuple twice —
// such as the tuples a session overlay has just admitted. An injective
// single-atom body (see Rule.Injective) then projects it without keying a
// single row.
func EvalSetDelta(body []Atom, cmps []Comparison, outVars []string, src Source, deltaRel string, delta []relation.Tuple, opts EvalOptions) ([]relation.Tuple, error) {
	return evalDelta(varTerms(outVars), body, cmps, src, deltaRel, delta, true, opts)
}

func varTerms(vars []string) []Term {
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = V(v)
	}
	return terms
}

// EvalQueryDelta is EvalSetDelta for a whole query: the answers (head
// tuples, whose terms may be constants) that use at least one tuple of
// deltaRel's delta, which must be a set. A query origin streams answers
// with it: the union over the batches fetched so far, plus Eval over the
// data held before the first batch, equals Eval over everything.
func EvalQueryDelta(q *Query, src Source, deltaRel string, delta []relation.Tuple, opts EvalOptions) ([]relation.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return evalDelta(q.Head.Terms, q.Body, q.Cmps, src, deltaRel, delta, true, opts)
}

// evalDelta unions the projections of one evaluation per occurrence of
// deltaRel, that occurrence restricted to the delta; setDelta says the delta
// repeats no tuple.
func evalDelta(terms []Term, body []Atom, cmps []Comparison, src Source, deltaRel string, delta []relation.Tuple, setDelta bool, opts EvalOptions) ([]relation.Tuple, error) {
	var out relation.Union
	for i := range body {
		if body[i].Rel != deltaRel {
			continue
		}
		idx := i
		res, err := evalProject(terms, body, cmps, src, &idx, delta, setDelta, opts)
		if err != nil {
			return nil, err
		}
		out.Add(res)
	}
	return out.Tuples, nil
}

// FilterCertain drops tuples containing marked nulls: the certain-answer
// semantics for unions of conjunctive queries over naive tables.
func FilterCertain(ts []relation.Tuple) []relation.Tuple {
	out := ts[:0:0]
	for _, t := range ts {
		if !t.HasNull() {
			out = append(out, t)
		}
	}
	return out
}

// binding is a partial assignment: values parallel to the compiled variable
// list, with a bound mask.
type binding struct {
	vals  []relation.Value
	bound []bool
}

func (b *binding) clone() *binding {
	nb := &binding{vals: make([]relation.Value, len(b.vals)), bound: make([]bool, len(b.bound))}
	copy(nb.vals, b.vals)
	copy(nb.bound, b.bound)
	return nb
}

// compiled plan over one body.
type plan struct {
	vars   []string
	varIdx map[string]int
	atoms  []patom
	cmps   []pcmp
}

type patom struct {
	rel    string
	varPos []int            // per term: variable index, or -1 for constant
	consts []relation.Value // per term: constant when varPos == -1
	delta  bool             // scan the delta slice instead of src
}

func (pa *patom) hasConst() bool {
	for _, vp := range pa.varPos {
		if vp < 0 {
			return true
		}
	}
	return false
}

type pcmp struct {
	op           CmpOp
	lVar, rVar   int // variable index or -1
	lConst       relation.Value
	rConst       relation.Value
	lastVarAtoms int // applicable once atoms[0:lastVarAtoms] are joined
}

// compile builds the plan: atom order chosen greedily (delta atom first,
// then most-constants, then max shared bound variables).
func compile(body []Atom, cmps []Comparison, deltaAtom *int) *plan {
	p := &plan{varIdx: make(map[string]int)}
	intern := func(v string) int {
		if i, ok := p.varIdx[v]; ok {
			return i
		}
		i := len(p.vars)
		p.vars = append(p.vars, v)
		p.varIdx[v] = i
		return i
	}

	// Greedy ordering over original indices.
	remaining := make([]int, len(body))
	for i := range remaining {
		remaining[i] = i
	}
	atomVars := make([][]string, len(body))
	for i, a := range body {
		atomVars[i] = a.Vars(nil)
	}
	boundVars := make(map[string]bool)
	var order []int
	for len(remaining) > 0 {
		best, bestScore := -1, -1<<30
		for ri, ai := range remaining {
			score := 0
			if deltaAtom != nil && ai == *deltaAtom {
				score += 1 << 20 // delta atom leads
			}
			for _, t := range body[ai].Terms {
				if !t.IsVar() {
					score += 4
				}
			}
			shared := 0
			for _, v := range atomVars[ai] {
				if boundVars[v] {
					shared++
				}
			}
			if len(order) > 0 && shared == 0 && score < 1<<20 {
				score -= 1 << 10 // discourage cartesian products
			}
			score += shared * 16
			if score > bestScore {
				bestScore, best = score, ri
			}
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		order = append(order, ai)
		for _, v := range atomVars[ai] {
			boundVars[v] = true
		}
	}

	for _, ai := range order {
		a := body[ai]
		pa := patom{rel: a.Rel, varPos: make([]int, len(a.Terms)), consts: make([]relation.Value, len(a.Terms))}
		for ti, t := range a.Terms {
			if t.IsVar() {
				pa.varPos[ti] = intern(t.Var)
			} else {
				pa.varPos[ti] = -1
				pa.consts[ti] = t.Const
			}
		}
		if deltaAtom != nil && ai == *deltaAtom {
			pa.delta = true
		}
		p.atoms = append(p.atoms, pa)
	}

	// Compile comparisons and find the earliest prefix after which each is
	// fully bound.
	for _, c := range cmps {
		pc := pcmp{op: c.Op, lVar: -1, rVar: -1}
		if c.L.IsVar() {
			pc.lVar = intern(c.L.Var)
		} else {
			pc.lConst = c.L.Const
		}
		if c.R.IsVar() {
			pc.rVar = intern(c.R.Var)
		} else {
			pc.rConst = c.R.Const
		}
		need := make(map[int]bool)
		if pc.lVar >= 0 {
			need[pc.lVar] = true
		}
		if pc.rVar >= 0 {
			need[pc.rVar] = true
		}
		bound := make(map[int]bool)
		pc.lastVarAtoms = len(p.atoms) // default: apply at the very end
		for i, pa := range p.atoms {
			for _, vp := range pa.varPos {
				if vp >= 0 {
					bound[vp] = true
				}
			}
			all := true
			for v := range need {
				if !bound[v] {
					all = false
					break
				}
			}
			if all {
				pc.lastVarAtoms = i + 1
				break
			}
		}
		if len(need) == 0 {
			// All-constant comparison: check after the first atom (there
			// is always at least one; empty bodies are rejected earlier).
			pc.lastVarAtoms = 1
		}
		p.cmps = append(p.cmps, pc)
	}
	return p
}

func (c *pcmp) eval(b *binding) bool {
	l, r := c.lConst, c.rConst
	if c.lVar >= 0 {
		l = b.vals[c.lVar]
	}
	if c.rVar >= 0 {
		r = b.vals[c.rVar]
	}
	return c.op.Eval(l, r)
}

// unify extends b with tuple t against atom pa; returns false (leaving b
// possibly dirty — caller clones) on mismatch.
func unify(pa *patom, t relation.Tuple, b *binding) bool {
	if len(t) != len(pa.varPos) {
		return false
	}
	for i, vp := range pa.varPos {
		if vp < 0 {
			if t[i] != pa.consts[i] {
				return false
			}
			continue
		}
		if b.bound[vp] {
			if b.vals[vp] != t[i] {
				return false
			}
			continue
		}
		b.bound[vp] = true
		b.vals[vp] = t[i]
	}
	return true
}

// evalProject compiles the body, evaluates it, and projects the bindings
// through the given head terms (variables or constants), deduplicating the
// result. deltaAtom (an index into body) and delta restrict one atom
// occurrence to the delta tuples; setDelta says the delta repeats no tuple.
func evalProject(terms []Term, body []Atom, cmps []Comparison, src Source, deltaAtom *int, delta []relation.Tuple, setDelta bool, opts EvalOptions) ([]relation.Tuple, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("cq: empty body")
	}
	if len(body) == 1 && len(cmps) == 0 && opts.Strategy != NestedLoop {
		useDelta := deltaAtom != nil
		return projectAtom(terms, &body[0], src, useDelta, delta, !useDelta || setDelta)
	}
	p := compile(body, cmps, deltaAtom)
	var bindings []*binding
	switch opts.Strategy {
	case NestedLoop:
		bindings = p.evalNested(src, delta)
	default:
		bindings = p.evalHash(src, delta)
	}
	seen := make(map[string]bool, len(bindings))
	var out []relation.Tuple
	for _, b := range bindings {
		t := make(relation.Tuple, len(terms))
		for i, term := range terms {
			if !term.IsVar() {
				t[i] = term.Const
				continue
			}
			vi, ok := p.varIdx[term.Var]
			if !ok || !b.bound[vi] {
				return nil, fmt.Errorf("cq: projection variable %s not bound", term.Var)
			}
			t[i] = b.vals[vi]
		}
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out, nil
}

// projectAtom evaluates a body of one atom and no comparisons — the copy,
// projection and selection rules most GLAV mappings are — straight off the
// atom's tuples (the delta, or the source with constant pushdown): no plan,
// no partial bindings, at most one dedup of the projected rows. It needs
// none when the input is a set (a source scan, or a delta its caller knows
// to be one) and the projection is injective: distinct tuples then give
// distinct rows, which are never keyed. The nested-loop reference strategy
// never takes it.
func projectAtom(terms []Term, a *Atom, src Source, useDelta bool, delta []relation.Tuple, inputIsSet bool) ([]relation.Tuple, error) {
	// A variable is identified by the position of its first occurrence in
	// the atom, so unification is a comparison between two positions.
	pa := patom{rel: a.Rel, varPos: make([]int, len(a.Terms)), consts: make([]relation.Value, len(a.Terms)), delta: useDelta}
	firstPos := func(name string) int {
		for ti, t := range a.Terms {
			if t.IsVar() && t.Var == name {
				return ti
			}
		}
		return -1
	}
	for ti, t := range a.Terms {
		if t.IsVar() {
			pa.varPos[ti] = firstPos(t.Var)
		} else {
			pa.varPos[ti] = -1
			pa.consts[ti] = t.Const
		}
	}
	outPos := make([]int, len(terms)) // per head term: atom position, or -1 for a constant
	unbound := ""
	// A copy rule projects every position onto itself: the row is the
	// tuple, which is immutable (Source contract) and handed on as it is.
	identity := len(terms) == len(a.Terms)
	for i, term := range terms {
		outPos[i] = -1
		if term.IsVar() {
			if outPos[i] = firstPos(term.Var); outPos[i] < 0 {
				unbound = term.Var
			}
		}
		identity = identity && outPos[i] == i
	}
	// Sized for the delta; a source scan (no delta) grows them, and an
	// empty one still returns nil like the general path.
	var out []relation.Tuple
	if useDelta {
		out = make([]relation.Tuple, 0, len(delta))
	}
	var seen map[string]struct{}
	if !inputIsSet || !injective(a, []Atom{{Terms: terms}}) {
		seen = make(map[string]struct{}, len(delta))
	}
	var err error
	scanAtom(src, &pa, delta, func(t relation.Tuple) bool {
		if len(t) != len(pa.varPos) {
			return true
		}
		for ti, vp := range pa.varPos {
			if vp < 0 {
				if t[ti] != pa.consts[ti] {
					return true
				}
			} else if t[vp] != t[ti] {
				return true
			}
		}
		if unbound != "" {
			err = fmt.Errorf("cq: projection variable %s not bound", unbound)
			return false
		}
		row := t
		if !identity {
			row = make(relation.Tuple, len(terms))
			for i, pos := range outPos {
				if pos < 0 {
					row[i] = terms[i].Const
				} else {
					row[i] = t[pos]
				}
			}
		}
		if seen != nil {
			k := row.Key()
			if _, dup := seen[k]; dup {
				return true
			}
			seen[k] = struct{}{}
		}
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func scanAtom(src Source, pa *patom, delta []relation.Tuple, fn func(relation.Tuple) bool) {
	if pa.delta {
		for _, t := range delta {
			if !fn(t) {
				return
			}
		}
		return
	}
	// Constant pushdown: let an index-capable source enumerate only the
	// tuples matching the atom's first constant. unify re-checks every
	// constant, so this is purely an access-path optimisation.
	if eq, ok := src.(EqScanner); ok {
		for ti, vp := range pa.varPos {
			if vp < 0 {
				eq.ScanEq(pa.rel, ti, pa.consts[ti], fn)
				return
			}
		}
	}
	src.Scan(pa.rel, fn)
}

// evalNested is the nested-loop strategy: depth-first over atoms.
func (p *plan) evalNested(src Source, delta []relation.Tuple) []*binding {
	var out []*binding
	var rec func(i int, b *binding)
	rec = func(i int, b *binding) {
		if i == len(p.atoms) {
			out = append(out, b.clone())
			return
		}
		pa := &p.atoms[i]
		scanAtom(src, pa, delta, func(t relation.Tuple) bool {
			if nb := p.extend(b, pa, i, t); nb != nil {
				rec(i+1, nb)
			}
			return true
		})
	}
	rec(0, &binding{vals: make([]relation.Value, len(p.vars)), bound: make([]bool, len(p.vars))})
	return out
}

// evalHash is the hash-join strategy: a pipeline of partial-binding sets,
// each atom joined via a hash table keyed on the shared bound variables —
// or, when the binding set is small and the source can probe (EqScanner),
// via one index probe per binding, so the cost follows the bindings rather
// than the relation (an index nested-loop step; same tuples, same order).
func (p *plan) evalHash(src Source, delta []relation.Tuple) []*binding {
	cur := []*binding{{vals: make([]relation.Value, len(p.vars)), bound: make([]bool, len(p.vars))}}
	boundSoFar := make([]bool, len(p.vars))
	eq, _ := src.(EqScanner)
	for i := range p.atoms {
		pa := &p.atoms[i]
		// Join key: positions of atom terms whose variable is already bound.
		var keyTermIdx []int
		for ti, vp := range pa.varPos {
			if vp >= 0 && boundSoFar[vp] {
				keyTermIdx = append(keyTermIdx, ti)
			}
		}
		// An atom with a constant already builds its buckets from an index
		// scan of that constant (scanAtom), which no probe pass beats.
		if eq != nil && !pa.delta && !pa.hasConst() && len(keyTermIdx) > 0 && len(cur) <= probeMaxOuter {
			cur = p.probeIndex(eq, cur, pa, i, keyTermIdx[0])
		} else {
			buckets := p.buildBuckets(src, pa, delta, keyTermIdx)
			cur = p.probe(cur, pa, i, keyTermIdx, buckets)
		}
		for _, vp := range pa.varPos {
			if vp >= 0 {
				boundSoFar[vp] = true
			}
		}
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// buildBuckets is the hash-join build phase for one atom: bucket the
// atom's tuples by join key (also filtering constants; intra-atom repeated
// variables are re-checked via unify at probe time).
func (p *plan) buildBuckets(src Source, pa *patom, delta []relation.Tuple, keyTermIdx []int) map[string][]relation.Tuple {
	buckets := make(map[string][]relation.Tuple)
	scanAtom(src, pa, delta, func(t relation.Tuple) bool {
		if len(t) != len(pa.varPos) {
			return true
		}
		for ti, vp := range pa.varPos {
			if vp < 0 && t[ti] != pa.consts[ti] {
				return true
			}
		}
		var kb []byte
		for _, ti := range keyTermIdx {
			kb = relation.EncodeValue(kb, t[ti])
		}
		k := string(kb)
		buckets[k] = append(buckets[k], t)
		return true
	})
	return buckets
}

// probe extends every partial binding with the matching tuples of one atom.
func (p *plan) probe(cur []*binding, pa *patom, atomIdx int, keyTermIdx []int, buckets map[string][]relation.Tuple) []*binding {
	var next []*binding
	for _, b := range cur {
		var kb []byte
		for _, ti := range keyTermIdx {
			kb = relation.EncodeValue(kb, b.vals[pa.varPos[ti]])
		}
		for _, t := range buckets[string(kb)] {
			if nb := p.extend(b, pa, atomIdx, t); nb != nil {
				next = append(next, nb)
			}
		}
	}
	return next
}

// probeIndex is the index nested-loop join step: every partial binding
// probes the source for the atom's tuples carrying its value at one join-key
// position. extend re-checks the remaining key positions, the constants and
// the arity, and ScanEq delivers in key order like the scans that fill the
// hash buckets, so the result is identical to the hash step's.
func (p *plan) probeIndex(eq EqScanner, cur []*binding, pa *patom, atomIdx, keyTerm int) []*binding {
	var next []*binding
	vi := pa.varPos[keyTerm]
	for _, b := range cur {
		eq.ScanEq(pa.rel, keyTerm, b.vals[vi], func(t relation.Tuple) bool {
			if nb := p.extend(b, pa, atomIdx, t); nb != nil {
				next = append(next, nb)
			}
			return true
		})
	}
	return next
}

// extend returns b extended with tuple t at the given atom, or nil when t
// does not unify or a comparison that just became fully bound fails.
func (p *plan) extend(b *binding, pa *patom, atomIdx int, t relation.Tuple) *binding {
	nb := b.clone()
	if !unify(pa, t, nb) {
		return nil
	}
	for ci := range p.cmps {
		if p.cmps[ci].lastVarAtoms == atomIdx+1 && !p.cmps[ci].eval(nb) {
			return nil
		}
	}
	return nb
}
