package cq

import (
	"fmt"
	"math/bits"

	"codb/internal/relation"
)

// Source is any provider of relation scans: the storage engine, a
// relation.Instance, or a peer's overlay view all satisfy it. A scan
// delivers a set: no tuple twice (storage snapshots, relation.Set and
// relation.Instance key their tuples, and the session view shadows overlay
// tuples the snapshot holds), so an injective projection of one scan needs
// no deduplication. Tuples handed to fn are never mutated afterwards — by
// the source or by the evaluator — so the evaluator keeps them as they are:
// a partial result of the hash join is a row of the tuples its atoms
// matched, never a clone of their values. A source must not reuse one
// tuple's backing array for the next.
type Source interface {
	Scan(rel string, fn func(relation.Tuple) bool)
}

// EqScanner is optionally implemented by sources that can enumerate the
// tuples with a fixed value at one position as an index probe — O(log n +
// matches), amortised — in the same (key) order Scan delivers them (storage
// snapshots and relation.Set do). The evaluator pushes the first constant
// of an atom down to it, and joins a small set of partial results against
// an atom by probing once per row instead of hash-building the whole
// relation (see probeMaxOuter).
type EqScanner interface {
	ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool)
}

// RangeScanner is optionally implemented by sources that can enumerate the
// tuples whose value at one position lies in a relation.Range as one ordered
// index walk — O(log n + matches), amortised (storage snapshots,
// relation.Set and the session view do). The evaluator pushes the constant
// comparison bounds of a variable down to the atom that binds it first,
// when that atom has no constant of its own (see rangeBounds). Comparisons
// are re-checked on every binding, so the range only narrows the scan to a
// superset of the matches.
type RangeScanner interface {
	ScanRange(rel string, pos int, r relation.Range, fn func(relation.Tuple) bool)
}

// Strategy selects the join algorithm.
type Strategy uint8

const (
	// HashJoin builds hash tables on shared variables (default); see
	// plan.evalHash.
	HashJoin Strategy = iota
	// NestedLoop re-scans each atom per partial binding, pushing down
	// constants but no range: the correctness reference the differential
	// and oracle tests compare the hash join against.
	NestedLoop
)

// EvalOptions tunes evaluation.
type EvalOptions struct {
	Strategy Strategy
}

// probeMaxOuter is the row count up to which a join step probes an
// EqScanner source once per partial result instead of building a hash table
// of the whole relation. Against a storage snapshot a probe costs ~0.8 µs
// per row all-in and the build ~0.06 µs per tuple of the relation
// (BenchmarkSelfJoinProbe on a 2-CPU shared host: the probe from outer=16
// to outer=128 at rows=20000, the build from rows=1024 to rows=20000 at
// outer=1), so the two break even at a relation about four times the outer
// set: with 128 rows probing loses 1.5x at 256 tuples (124 vs 83 µs), wins
// 1.3x at 1,024 and 15x at 20k (0.21 vs 3.0 ms). While every match cloned a
// binding, bucketing cost ~0.27 µs per tuple and the break-even sat at half
// the outer set; rows of matched tuples moved it, but not the bound. The
// relation's size is not known here, so the bound caps the loss rather than
// locating the crossover: at 128 rows it stays under 2x (tens of µs)
// against a small relation, while batches of the session data path (64–128
// fresh tuples per message) meet relations of a thousand tuples and more,
// where the probe wins; full exports (thousands of rows) keep the hash join.
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
// semantics for unions of conjunctive queries over naive tables. It never
// writes to ts, which may be cached, and returns ts itself when no tuple
// holds a null.
func FilterCertain(ts []relation.Tuple) []relation.Tuple {
	for i, t := range ts {
		if !t.HasNull() {
			continue
		}
		out := append(make([]relation.Tuple, 0, len(ts)-1), ts[:i]...)
		for _, t := range ts[i+1:] {
			if !t.HasNull() {
				out = append(out, t)
			}
		}
		return out
	}
	return ts
}

// binding is a partial assignment of the nested-loop strategy: values
// parallel to the compiled variable list, with a bound mask.
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
	loc    []varLoc // per variable: where the hash join reads it
	atoms  []patom
	cmps   []pcmp
	empty  bool // the constant comparisons of some variable admit no value
}

// varLoc is where a variable is first bound in plan order: the tuple matched
// at one atom step, one position of it. atom is -1 for a variable no atom
// binds (it occurs in a comparison only).
type varLoc struct{ atom, pos int }

// termRole is what one atom term does when the atom's tuple extends a row of
// the hash join. The plan order fixes it: in a pipelined join every atom
// before this one has bound its variables.
type termRole uint8

const (
	roleConst termRole = iota // compare with a constant
	roleBind                  // first occurrence of a variable: nothing to check
	roleCheck                 // later occurrence: compare with where it was bound
)

type pterm struct {
	role termRole
	at   varLoc // roleCheck: the variable's first binding
}

type patom struct {
	rel    string
	varPos []int            // per term: variable index, or -1 for constant
	consts []relation.Value // per term: constant when varPos == -1
	terms  []pterm          // per term: its role in the hash join
	key    []int            // positions whose variable an earlier atom binds: the join key
	delta  bool             // scan the delta slice instead of src
	bound  *posRange        // the range a RangeScanner source walks, or nil
}

// posRange is the range of values the comparisons admit at one position of
// an atom.
type posRange struct {
	pos int
	r   relation.Range
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
	lAt, rAt     varLoc // the hash join's read of lVar, rVar; atom -1 reads the constant
	lastVarAtoms int    // applicable once atoms[0:lastVarAtoms] are joined
}

// compile builds the plan: atom order chosen greedily (delta atom first,
// then most-constants, then range-bounded, then max shared bound variables).
// With pushRanges, every constant-free atom that binds a variable first is
// given the range its constant comparisons admit (see rangeBounds).
func compile(body []Atom, cmps []Comparison, deltaAtom *int, pushRanges bool) *plan {
	p := &plan{varIdx: make(map[string]int)}
	var bounds map[string]relation.Range
	if pushRanges {
		bounds = rangeBounds(cmps)
	}
	intern := func(v string) int {
		if i, ok := p.varIdx[v]; ok {
			return i
		}
		i := len(p.vars)
		p.vars = append(p.vars, v)
		p.loc = append(p.loc, varLoc{atom: -1})
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
			shared, ranged := 0, false
			for _, v := range atomVars[ai] {
				if boundVars[v] {
					shared++
				} else if _, ok := bounds[v]; ok {
					ranged = true
				}
			}
			if ranged {
				score += 2 // below one constant
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

	for step, ai := range order {
		a := body[ai]
		pa := patom{rel: a.Rel, varPos: make([]int, len(a.Terms)), consts: make([]relation.Value, len(a.Terms)), terms: make([]pterm, len(a.Terms))}
		for ti, t := range a.Terms {
			if !t.IsVar() {
				pa.varPos[ti] = -1
				pa.consts[ti] = t.Const
				continue
			}
			if _, seen := p.varIdx[t.Var]; !seen && pa.bound == nil {
				if r, ok := bounds[t.Var]; ok {
					pa.bound = &posRange{pos: ti, r: r}
				}
			}
			vi := intern(t.Var)
			pa.varPos[ti] = vi
			switch at := p.loc[vi]; {
			case at.atom < 0:
				p.loc[vi] = varLoc{atom: step, pos: ti}
				pa.terms[ti].role = roleBind
			default:
				pa.terms[ti] = pterm{role: roleCheck, at: at}
				if at.atom < step {
					pa.key = append(pa.key, ti)
				}
			}
		}
		if deltaAtom != nil && ai == *deltaAtom {
			pa.delta = true
		}
		if pa.delta || pa.hasConst() {
			pa.bound = nil
		}
		p.atoms = append(p.atoms, pa)
	}
	for _, r := range bounds {
		p.empty = p.empty || r.Empty()
	}

	// Compile comparisons and find the earliest prefix after which each is
	// fully bound.
	for _, c := range cmps {
		pc := pcmp{op: c.Op, lVar: -1, rVar: -1, lAt: varLoc{atom: -1}, rAt: varLoc{atom: -1}}
		if c.L.IsVar() {
			pc.lVar = intern(c.L.Var)
			pc.lAt = p.loc[pc.lVar]
		} else {
			pc.lConst = c.L.Const
		}
		if c.R.IsVar() {
			pc.rVar = intern(c.R.Var)
			pc.rAt = p.loc[pc.rVar]
		} else {
			pc.rConst = c.R.Const
		}
		// A variable no atom binds reads as the zero Value, the constant
		// lConst/rConst already hold, and the comparison waits for the end.
		switch {
		case pc.lVar < 0 && pc.rVar < 0:
			// All-constant comparison: check after the first atom (there
			// is always at least one; empty bodies are rejected earlier).
			pc.lastVarAtoms = 1
		case pc.lVar >= 0 && pc.lAt.atom < 0, pc.rVar >= 0 && pc.rAt.atom < 0:
			pc.lastVarAtoms = len(p.atoms) // default: apply at the very end
		default:
			pc.lastVarAtoms = max(pc.lAt.atom, pc.rAt.atom) + 1
		}
		p.cmps = append(p.cmps, pc)
	}
	return p
}

// rangeBounds folds the comparisons of a variable with a constant — x op c
// or c op x, op one of = < <= > >= — into the tightest relation.Range of the
// values they admit, per variable; nil when there is none. The range rests
// on one premise: at the constant, encoding order is Value.Compare order. It
// holds at an int, string or bool constant, and values of other kinds sit
// wholly on one side of the bound in both orders (both order by kind first),
// so the range is a superset of the matches. It fails at a Float (-0.0 and
// +0.0 encode apart but compare equal, NaN compares equal to every float)
// and does not describe a marked null (CmpOp.Eval holds no ordering with a
// null and decides = by label), so neither is pushed.
func rangeBounds(cmps []Comparison) map[string]relation.Range {
	var out map[string]relation.Range
	for _, c := range cmps {
		x, k, op := c.L, c.R, c.Op
		if !x.IsVar() {
			x, k, op = c.R, c.L, op.flip()
		}
		if !x.IsVar() || k.IsVar() {
			continue
		}
		switch k.Const.Kind {
		case relation.KindInt, relation.KindString, relation.KindBool:
		default:
			continue
		}
		r := out[x.Var]
		switch op {
		case OpEq:
			r = r.AtLeast(k.Const).AtMost(k.Const)
		case OpLt:
			r = r.Below(k.Const)
		case OpLe:
			r = r.AtMost(k.Const)
		case OpGt:
			r = r.Above(k.Const)
		case OpGe:
			r = r.AtLeast(k.Const)
		default:
			continue
		}
		if out == nil {
			out = make(map[string]relation.Range)
		}
		out[x.Var] = r
	}
	return out
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
			if !t[i].Equal(pa.consts[i]) {
				return false
			}
			continue
		}
		if b.bound[vp] {
			if !b.vals[vp].Equal(t[i]) {
				return false
			}
			continue
		}
		b.bound[vp] = true
		b.vals[vp] = t[i]
	}
	return true
}

// evalProject compiles the body, evaluates it, and projects the results
// through the given head terms (variables or constants), deduplicating them.
// deltaAtom (an index into body) and delta restrict one atom occurrence to
// the delta tuples; setDelta says the delta repeats no tuple.
func evalProject(terms []Term, body []Atom, cmps []Comparison, src Source, deltaAtom *int, delta []relation.Tuple, setDelta bool, opts EvalOptions) ([]relation.Tuple, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("cq: empty body")
	}
	if len(body) == 1 && len(cmps) == 0 && opts.Strategy != NestedLoop {
		useDelta := deltaAtom != nil
		return projectAtom(terms, &body[0], src, useDelta, delta, !useDelta || setDelta)
	}
	p := compile(body, cmps, deltaAtom, opts.Strategy != NestedLoop)
	if opts.Strategy == NestedLoop {
		bindings := p.evalNested(src, delta)
		out := newProjection(len(terms), len(bindings))
		for _, b := range bindings {
			row := out.slab.next()
			for i, term := range terms {
				if !term.IsVar() {
					row[i] = term.Const
					continue
				}
				vi, ok := p.varIdx[term.Var]
				if !ok || !b.bound[vi] {
					return nil, fmt.Errorf("cq: projection variable %s not bound", term.Var)
				}
				row[i] = b.vals[vi]
			}
			out.add(row)
		}
		return out.tuples(), nil
	}
	rows, n := p.evalHash(src, delta)
	if n == 0 {
		return nil, nil
	}
	// Per head term: where its variable is bound, or atom -1 for a constant.
	from := make([]varLoc, len(terms))
	for i, term := range terms {
		from[i] = varLoc{atom: -1}
		if term.IsVar() {
			vi, ok := p.varIdx[term.Var]
			if !ok || p.loc[vi].atom < 0 {
				return nil, fmt.Errorf("cq: projection variable %s not bound", term.Var)
			}
			from[i] = p.loc[vi]
		}
	}
	out := newProjection(len(terms), n)
	w := len(p.atoms)
	for r := 0; r < n; r++ {
		matched := rows[r*w : (r+1)*w]
		row := out.slab.next()
		for i, l := range from {
			if l.atom < 0 {
				row[i] = terms[i].Const
			} else {
				row[i] = matched[l.atom][l.pos]
			}
		}
		out.add(row)
	}
	return out.tuples(), nil
}

// projection collects the distinct head rows of one evaluation of at most n
// rows: their values in one slab, each row kept once by a relation.TupleSet.
type projection struct {
	n    int
	slab valueSlab
	set  relation.TupleSet
}

func newProjection(width, n int) *projection {
	pr := &projection{n: n, slab: valueSlab{width: width, chunk: n}}
	pr.set.Grow(n)
	return pr
}

// add keeps row, which slab.next returned, unless it was kept already.
func (pr *projection) add(row relation.Tuple) {
	if pr.set.Add(row) {
		pr.slab.commit()
	}
}

// tuples returns the rows kept, nil for none. When fewer than half the rows
// survived the dedup they move to a slab of their size, so a caller that
// keeps the answer does not keep the duplicates' room too.
func (pr *projection) tuples() []relation.Tuple {
	out := pr.set.Tuples
	if len(out) == 0 {
		return nil
	}
	if w := pr.slab.width; w > 0 && 2*len(out) < pr.n {
		vals := make([]relation.Value, len(out)*w)
		rows := make([]relation.Tuple, len(out))
		for i, t := range out {
			rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
			copy(rows[i], t)
		}
		return rows
	}
	return out
}

// valueSlab hands out rows of width values from shared chunks: one
// allocation per chunk instead of one per row. A row it has handed out and
// committed is never written again, so it may be kept and returned.
type valueSlab struct {
	vals  []relation.Value
	width int
	chunk int // rows in the next chunk
}

// next returns the row to fill. It stays the slab's, and the next call
// returns it again, until commit.
func (s *valueSlab) next() relation.Tuple {
	if s.width == 0 {
		return relation.Tuple{}
	}
	n := len(s.vals)
	if cap(s.vals)-n < s.width {
		s.chunk = max(s.chunk, 1)
		s.vals, n = make([]relation.Value, 0, s.width*s.chunk), 0
		s.chunk *= 2
	}
	return s.vals[n : n+s.width : n+s.width]
}

// commit keeps the row next returned.
func (s *valueSlab) commit() { s.vals = s.vals[:len(s.vals)+s.width] }

// projectAtom evaluates a body of one atom and no comparisons — the copy,
// projection and selection rules most GLAV mappings are — straight off the
// atom's tuples (the delta, or the source with constant pushdown): no plan,
// no partial results, at most one dedup of the projected rows. It needs
// none when the input is a set (a source scan, or a delta its caller knows
// to be one) and the projection is injective: distinct tuples then give
// distinct rows, which are never hashed. The nested-loop reference strategy
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
	// An identity projection of a set delta is the delta itself, once every
	// tuple has the atom's arity: there is nothing to filter, reorder or
	// deduplicate.
	if identity && useDelta && inputIsSet && arityIs(delta, len(a.Terms)) {
		return delta, nil
	}
	// The callback's state is one variable, so one allocation: the rows
	// kept (in seen when they need a dedup), the slab they are projected
	// into, and the error that stops the scan. Sized for the delta; a source
	// scan grows them from one row, as a constant's index scan may deliver
	// no more, and an empty one still returns nil like the general path.
	var st struct {
		out  []relation.Tuple
		seen *relation.TupleSet
		slab valueSlab
		err  error
	}
	st.slab = valueSlab{width: len(terms), chunk: 1}
	if !inputIsSet || !injective(a, []Atom{{Terms: terms}}) {
		st.seen = new(relation.TupleSet)
		st.seen.Grow(len(delta))
	} else if useDelta {
		st.out = make([]relation.Tuple, 0, len(delta))
	}
	if useDelta {
		st.slab.chunk = len(delta)
	}
	varPos, consts := pa.varPos, pa.consts
	scanAtom(src, &pa, delta, func(t relation.Tuple) bool {
		if len(t) != len(varPos) {
			return true
		}
		for ti, vp := range varPos {
			if vp < 0 {
				if !t[ti].Equal(consts[ti]) {
					return true
				}
			} else if vp != ti && !t[vp].Equal(t[ti]) {
				return true
			}
		}
		if unbound != "" {
			st.err = fmt.Errorf("cq: projection variable %s not bound", unbound)
			return false
		}
		row := t
		if !identity {
			row = st.slab.next()
			for i, pos := range outPos {
				if pos < 0 {
					row[i] = terms[i].Const
				} else {
					row[i] = t[pos]
				}
			}
		}
		switch {
		case st.seen == nil:
			st.out = append(st.out, row)
		case !st.seen.Add(row):
			return true
		}
		if !identity {
			st.slab.commit()
		}
		return true
	})
	if st.err != nil {
		return nil, st.err
	}
	if st.seen != nil {
		return st.seen.Tuples, nil
	}
	return st.out, nil
}

// arityIs reports whether every tuple has n values.
func arityIs(ts []relation.Tuple, n int) bool {
	for _, t := range ts {
		if len(t) != n {
			return false
		}
	}
	return true
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
	// Constant and range pushdown: let an index-capable source enumerate
	// only the tuples matching the atom's first constant, or else lying in
	// its range. Every constant and comparison is re-checked on the tuples
	// delivered, so this is purely an access-path optimisation.
	if eq, ok := src.(EqScanner); ok {
		for ti, vp := range pa.varPos {
			if vp < 0 {
				eq.ScanEq(pa.rel, ti, pa.consts[ti], fn)
				return
			}
		}
	}
	if pa.bound != nil {
		if rs, ok := src.(RangeScanner); ok {
			rs.ScanRange(pa.rel, pa.bound.pos, pa.bound.r, fn)
			return
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

// evalHash is the hash-join strategy: a pipeline over the atoms in plan
// order whose partial results are rows of matched tuples. After step i a
// row is the i+1 tuples the atoms so far matched, rows[r*(i+1):(r+1)*(i+1)]
// of one flat slice, and a variable is read where the plan says it was
// first bound (plan.loc) — values are never copied into bindings. Each step
// extends every row with the matching tuples of its atom:
//
//   - by a hash table of the atom's tuples on the join key, the variables
//     earlier atoms bind (hashJoin);
//   - when the rows are few and the source can probe (EqScanner), by one
//     index probe per row, so the cost follows the rows rather than the
//     relation (probeIndex: an index nested-loop step; same tuples, same
//     order);
//   - when the atom shares no bound variable, by scanning it once and
//     pairing every tuple with every row (cross).
//
// Matches come out row by row, each row's in scan order. A cartesian step
// after the first atom is the exception: its matches come out tuple by
// tuple. It returns the final rows, len(p.atoms) tuples each, and their
// count.
func (p *plan) evalHash(src Source, delta []relation.Tuple) (rows []relation.Tuple, n int) {
	if p.empty {
		return nil, 0
	}
	n = 1 // the empty row
	eq, _ := src.(EqScanner)
	for i := range p.atoms {
		pa := &p.atoms[i]
		switch {
		case len(pa.key) == 0:
			rows = p.cross(src, delta, i, rows, n)
		case eq != nil && !pa.delta && !pa.hasConst() && n <= probeMaxOuter:
			// An atom with a constant builds its table from an index scan
			// of that constant (scanAtom), which no probe pass beats.
			rows = p.probeIndex(eq, i, rows, n)
		default:
			rows = p.hashJoin(src, delta, i, rows, n)
		}
		if n = len(rows) / (i + 1); n == 0 {
			return nil, 0
		}
	}
	return rows, n
}

// match reports whether tuple t extends row at step i: its arity, its
// constants, every variable an earlier atom or position binds (compared by
// Equal with the value where it was bound), and the comparisons that become
// fully bound at this step.
func (p *plan) match(i int, row []relation.Tuple, t relation.Tuple) bool {
	pa := &p.atoms[i]
	if len(t) != len(pa.terms) {
		return false
	}
	for ti, pt := range pa.terms {
		switch pt.role {
		case roleConst:
			if !t[ti].Equal(pa.consts[ti]) {
				return false
			}
		case roleCheck:
			if !t[ti].Equal(value(row, t, i, pt.at)) {
				return false
			}
		}
	}
	for ci := range p.cmps {
		c := &p.cmps[ci]
		if c.lastVarAtoms == i+1 && !c.op.Eval(operand(row, t, i, c.lAt, c.lConst), operand(row, t, i, c.rAt, c.rConst)) {
			return false
		}
	}
	return true
}

// value reads the variable bound at l while t extends row at step i.
func value(row []relation.Tuple, t relation.Tuple, i int, l varLoc) relation.Value {
	if l.atom == i {
		return t[l.pos]
	}
	return row[l.atom][l.pos]
}

// operand is a comparison side: the variable bound at l, or the constant k
// when l is no location.
func operand(row []relation.Tuple, t relation.Tuple, i int, l varLoc, k relation.Value) relation.Value {
	if l.atom < 0 {
		return k
	}
	return value(row, t, i, l)
}

// cross extends every row with every matching tuple of an atom that shares
// no bound variable, scanning the atom once: tuple by tuple in scan order,
// each paired with the rows in order. At the first atom (one empty row)
// that is scan order.
func (p *plan) cross(src Source, delta []relation.Tuple, i int, rows []relation.Tuple, n int) []relation.Tuple {
	var next []relation.Tuple
	scanAtom(src, &p.atoms[i], delta, func(t relation.Tuple) bool {
		for r := 0; r < n; r++ {
			if row := rows[r*i : (r+1)*i]; p.match(i, row, t) {
				next = appendRow(next, row, t)
			}
		}
		return true
	})
	return next
}

// appendRow appends the row extended by t. A full slice doubles: append
// grows a large one by about a quarter at a time, which allocates and
// copies several times as many bytes in all.
func appendRow(rows, row []relation.Tuple, t relation.Tuple) []relation.Tuple {
	if w := len(row) + 1; cap(rows)-len(rows) < w {
		rows = append(make([]relation.Tuple, 0, max(2*len(rows), 4*w)), rows...)
	}
	return append(append(rows, row...), t)
}

// entry is one tuple of a hashJoin table: its join-key hash and the next
// tuple of its chain.
type entry struct {
	t    relation.Tuple
	hash uint64
	next *entry
}

// hashJoin is the build-and-probe step. The atom's tuples, filtered on
// arity and constants, are hashed on the join key (relation.Value.Hash,
// which agrees with Equal) and chained in scan order; each row hashes the
// same variables where it holds them and walks its chain. A chain may mix
// keys whose hashes share a slot or collide, so every candidate is
// re-checked by match, which compares every key position with Equal. The
// table grows by blocks of doubling size that never move, so the build
// copies no entry.
func (p *plan) hashJoin(src Source, delta []relation.Tuple, i int, rows []relation.Tuple, n int) []relation.Tuple {
	pa := &p.atoms[i]
	var blocks [][]entry
	size := 0
	scanAtom(src, pa, delta, func(t relation.Tuple) bool {
		if len(t) != len(pa.terms) {
			return true
		}
		for ti, vp := range pa.varPos {
			if vp < 0 && !t[ti].Equal(pa.consts[ti]) {
				return true
			}
		}
		var h uint64
		for _, ti := range pa.key {
			h = t[ti].Hash(h)
		}
		if b := len(blocks); b == 0 || len(blocks[b-1]) == cap(blocks[b-1]) {
			blocks = append(blocks, make([]entry, 0, 8<<min(b, 20)))
		}
		last := &blocks[len(blocks)-1]
		*last = append(*last, entry{t: t, hash: h})
		size++
		return true
	})
	if size == 0 {
		return nil
	}
	mask := uint64(1)<<bits.Len(uint(size)) - 1
	heads := make([]*entry, mask+1)
	for b := len(blocks) - 1; b >= 0; b-- { // linked backwards, walked forwards
		for k := len(blocks[b]) - 1; k >= 0; k-- {
			e := &blocks[b][k]
			e.next, heads[e.hash&mask] = heads[e.hash&mask], e
		}
	}
	next := make([]relation.Tuple, 0, min(n, size)*(i+1))
	for r := 0; r < n; r++ {
		row := rows[r*i : (r+1)*i]
		var h uint64
		for _, ti := range pa.key {
			at := pa.terms[ti].at
			h = row[at.atom][at.pos].Hash(h)
		}
		for e := heads[h&mask]; e != nil; e = e.next {
			if e.hash == h && p.match(i, row, e.t) {
				next = appendRow(next, row, e.t)
			}
		}
	}
	return next
}

// probeIndex is the index nested-loop join step: every row probes the
// source for the atom's tuples carrying its value at the first join-key
// position. match re-checks the other key positions, the constants and the
// arity, and ScanEq delivers in key order like the scan that fills the hash
// table, so the result is identical to hashJoin's.
func (p *plan) probeIndex(eq EqScanner, i int, rows []relation.Tuple, n int) []relation.Tuple {
	pa := &p.atoms[i]
	keyTerm := pa.key[0]
	at := pa.terms[keyTerm].at
	var next, row []relation.Tuple
	fn := func(t relation.Tuple) bool {
		if p.match(i, row, t) {
			next = appendRow(next, row, t)
		}
		return true
	}
	for r := 0; r < n; r++ {
		row = rows[r*i : (r+1)*i]
		eq.ScanEq(pa.rel, keyTerm, row[at.atom][at.pos], fn)
	}
	return next
}
