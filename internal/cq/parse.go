package cq

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"codb/internal/relation"
)

// Concrete syntax:
//
//	query:  ans(x, y) :- emp(x, d), dept(d, y), x > 10, y != "hr"
//	rule:   N1.person(x, n), N1.addr(x, a) <- N2.emp(x, n), N2.loc(x, c), c = "it"
//
// Identifiers are variables inside atoms and relation names in atom
// position; "_" is an anonymous variable (each occurrence distinct);
// constants are integers, floats, "strings", true and false. '#' starts a
// comment that runs to the end of the line.

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrowCQ   // :-
	tokArrowRule // <-
	tokOp        // comparison operator
)

type token struct {
	kind tokKind
	text string
	op   CmpOp
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("cq: parse error at column %d: %s", pos+1, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case c == '.':
		l.pos++
		return token{kind: tokDot, pos: start}, nil
	case c == ':':
		if strings.HasPrefix(l.src[l.pos:], ":-") {
			l.pos += 2
			return token{kind: tokArrowCQ, pos: start}, nil
		}
		return token{}, l.errf(start, "expected ':-'")
	case c == '<':
		if strings.HasPrefix(l.src[l.pos:], "<-") {
			l.pos += 2
			return token{kind: tokArrowRule, pos: start}, nil
		}
		if strings.HasPrefix(l.src[l.pos:], "<=") {
			l.pos += 2
			return token{kind: tokOp, op: OpLe, pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, op: OpLt, pos: start}, nil
	case c == '>':
		if strings.HasPrefix(l.src[l.pos:], ">=") {
			l.pos += 2
			return token{kind: tokOp, op: OpGe, pos: start}, nil
		}
		l.pos++
		return token{kind: tokOp, op: OpGt, pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOp, op: OpEq, pos: start}, nil
	case c == '!':
		if strings.HasPrefix(l.src[l.pos:], "!=") {
			l.pos += 2
			return token{kind: tokOp, op: OpNe, pos: start}, nil
		}
		return token{}, l.errf(start, "expected '!='")
	case c == '"':
		// Scan to the closing unescaped quote, then let strconv.Unquote
		// interpret the literal: string values render with strconv.Quote
		// (relation.Value.String), so the lexer must accept exactly the Go
		// escape vocabulary for rendered terms to round-trip.
		l.pos++
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\\' && l.pos+1 < len(l.src) {
				l.pos += 2
				continue
			}
			if ch == '"' {
				l.pos++
				text, err := strconv.Unquote(l.src[start:l.pos])
				if err != nil {
					return token{}, l.errf(start, "bad string literal: %v", err)
				}
				return token{kind: tokString, text: text, pos: start}, nil
			}
			if ch == '\n' {
				break // strconv.Unquote would reject it anyway; report cleanly
			}
			l.pos++
		}
		return token{}, l.errf(start, "unterminated string")
	case c == '-' || (c >= '0' && c <= '9'):
		l.pos++
		isFloat := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
				continue
			}
			if ch == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				isFloat = true
				l.pos++
				continue
			}
			// Exponent: the lexer accepts [eE][+-]?digits after the
			// mantissa (1e+06). Terms render floats in plain decimal.
			if (ch == 'e' || ch == 'E') && l.pos > start && l.src[l.pos-1] >= '0' && l.src[l.pos-1] <= '9' {
				rest := l.src[l.pos+1:]
				if len(rest) > 0 && (rest[0] == '+' || rest[0] == '-') {
					rest = rest[1:]
				}
				if len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
					isFloat = true
					l.pos += len(l.src[l.pos:]) - len(rest) // past e and sign
					for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
						l.pos++
					}
				}
			}
			break
		}
		text := l.src[start:l.pos]
		if text == "-" {
			return token{}, l.errf(start, "dangling '-'")
		}
		if isFloat {
			return token{kind: tokFloat, text: text, pos: start}, nil
		}
		return token{kind: tokInt, text: text, pos: start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

type parser struct {
	lex   lexer
	tok   token
	anonN int
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: lexer{src: src}}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.tok.kind != k {
		return token{}, p.lex.errf(p.tok.pos, "expected %s", what)
	}
	t := p.tok
	return t, p.advance()
}

// term parses a variable or constant.
func (p *parser) term() (Term, error) {
	switch p.tok.kind {
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		switch name {
		case "true":
			return C(relation.Bool(true)), nil
		case "false":
			return C(relation.Bool(false)), nil
		case "_":
			p.anonN++
			return V(fmt.Sprintf("_anon%d", p.anonN)), nil
		}
		return V(name), nil
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return Term{}, p.lex.errf(p.tok.pos, "bad integer %q", p.tok.text)
		}
		return C(relation.Int64(n)), p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return Term{}, p.lex.errf(p.tok.pos, "bad float %q", p.tok.text)
		}
		return C(relation.Float(f)), p.advance()
	case tokString:
		s := p.tok.text
		return C(relation.Str(s)), p.advance()
	default:
		return Term{}, p.lex.errf(p.tok.pos, "expected a term")
	}
}

// qualifiedAtom parses [node '.'] rel '(' terms ')' and returns the node
// qualifier ("" if absent).
func (p *parser) qualifiedAtom() (node string, a Atom, err error) {
	name, err := p.expect(tokIdent, "a relation name")
	if err != nil {
		return "", Atom{}, err
	}
	rel := name.text
	if p.tok.kind == tokDot {
		if err := p.advance(); err != nil {
			return "", Atom{}, err
		}
		relTok, err := p.expect(tokIdent, "a relation name after '.'")
		if err != nil {
			return "", Atom{}, err
		}
		node, rel = name.text, relTok.text
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return "", Atom{}, err
	}
	var terms []Term
	if p.tok.kind != tokRParen {
		for {
			t, err := p.term()
			if err != nil {
				return "", Atom{}, err
			}
			terms = append(terms, t)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return "", Atom{}, err
			}
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return "", Atom{}, err
	}
	if len(terms) == 0 {
		return "", Atom{}, p.lex.errf(name.pos, "atom %s has no terms", rel)
	}
	return node, Atom{Rel: rel, Terms: terms}, nil
}

// bodyItem is either an atom or a comparison; the parser distinguishes by
// lookahead: "term op term" vs "atom".
func (p *parser) bodyItems() (atoms []Atom, nodes []string, cmps []Comparison, err error) {
	for {
		// A comparison starts with a term followed by an operator; an
		// atom starts with ident '(' or ident '.' ident '('. Disambiguate
		// by trying the comparison pattern first when the next-next token
		// is not a paren/dot.
		if p.tok.kind == tokIdent || p.tok.kind == tokInt || p.tok.kind == tokFloat || p.tok.kind == tokString {
			save := *p
			if p.tok.kind == tokIdent {
				// Peek: ident then '(' or '.' means atom.
				if err := p.advance(); err != nil {
					return nil, nil, nil, err
				}
				if p.tok.kind == tokLParen || p.tok.kind == tokDot {
					*p = save
					node, a, err := p.qualifiedAtom()
					if err != nil {
						return nil, nil, nil, err
					}
					atoms = append(atoms, a)
					nodes = append(nodes, node)
					goto next
				}
				*p = save
			}
			// Comparison.
			l, err := p.term()
			if err != nil {
				return nil, nil, nil, err
			}
			opTok, err := p.expect(tokOp, "a comparison operator")
			if err != nil {
				return nil, nil, nil, err
			}
			r, err := p.term()
			if err != nil {
				return nil, nil, nil, err
			}
			cmps = append(cmps, Comparison{Op: opTok.op, L: l, R: r})
		} else {
			return nil, nil, nil, p.lex.errf(p.tok.pos, "expected an atom or comparison")
		}
	next:
		if p.tok.kind != tokComma {
			return atoms, nodes, cmps, nil
		}
		if err := p.advance(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// ErrBadQuery is the sentinel every ParseQuery/ParseRule failure matches
// (errors.Is): callers — the HTTP gateway in particular — can classify a
// failure as "the input was malformed" without string inspection, while the
// error message keeps the parser's position detail.
var ErrBadQuery = errors.New("cq: bad query")

// badQuery marks err as matching ErrBadQuery without changing its message.
type badQuery struct{ err error }

func (e *badQuery) Error() string        { return e.err.Error() }
func (e *badQuery) Unwrap() error        { return e.err }
func (e *badQuery) Is(target error) bool { return target == ErrBadQuery }

// ParseQuery parses "head :- body" with unqualified relation names.
func ParseQuery(src string) (*Query, error) {
	q, err := parseQuery(src)
	if err != nil {
		return nil, &badQuery{err}
	}
	return q, nil
}

func parseQuery(src string) (*Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	node, head, err := p.qualifiedAtom()
	if err != nil {
		return nil, err
	}
	if node != "" {
		return nil, fmt.Errorf("cq: query head must not be node-qualified")
	}
	if _, err := p.expect(tokArrowCQ, "':-'"); err != nil {
		return nil, err
	}
	atoms, nodes, cmps, err := p.bodyItems()
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n != "" {
			return nil, fmt.Errorf("cq: query atoms must not be node-qualified")
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errf(p.tok.pos, "trailing input")
	}
	q := &Query{Head: head, Body: atoms, Cmps: cmps}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParseQuery is ParseQuery panicking on error; for tests and examples.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseRule parses a GLAV rule "target.h(...) [, target.h2(...)] <-
// source.b(...) [, source.b2(...)] [, comparisons]". Every head atom must be
// qualified with the same target node, every body atom with the same source
// node.
func ParseRule(id, src string) (*Rule, error) {
	r, err := parseRule(id, src)
	if err != nil {
		return nil, &badQuery{err}
	}
	return r, nil
}

func parseRule(id, src string) (*Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var head []Atom
	target := ""
	for {
		node, a, err := p.qualifiedAtom()
		if err != nil {
			return nil, err
		}
		if node == "" {
			return nil, fmt.Errorf("cq: rule %s: head atom %s must be node-qualified (node.rel)", id, a.Rel)
		}
		if target == "" {
			target = node
		} else if node != target {
			return nil, fmt.Errorf("cq: rule %s: head atoms reference two nodes (%s, %s)", id, target, node)
		}
		head = append(head, a)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokArrowRule, "'<-'"); err != nil {
		return nil, err
	}
	atoms, nodes, cmps, err := p.bodyItems()
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("cq: rule %s has no body atoms", id)
	}
	source := ""
	for i, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cq: rule %s: body atom %s must be node-qualified", id, atoms[i].Rel)
		}
		if source == "" {
			source = n
		} else if n != source {
			return nil, fmt.Errorf("cq: rule %s: body atoms reference two nodes (%s, %s)", id, source, n)
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errf(p.tok.pos, "trailing input")
	}
	r := &Rule{ID: id, Target: target, Source: source, Head: head, Body: atoms, Cmps: cmps}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseFilter parses a comma-separated list of comparison predicates
// ("x > 10, y != \"hr\"") — the concrete syntax of a per-link propagation
// filter. The variables are resolved by the caller against the link rule's
// frontier; ParseFilter only checks the comparison grammar. Failures match
// ErrBadQuery like every other parse error.
func ParseFilter(src string) ([]Comparison, error) {
	cmps, err := parseFilter(src)
	if err != nil {
		return nil, &badQuery{err}
	}
	return cmps, nil
}

func parseFilter(src string) ([]Comparison, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	atoms, _, cmps, err := p.bodyItems()
	if err != nil {
		return nil, err
	}
	if len(atoms) > 0 {
		return nil, fmt.Errorf("cq: filter must contain only comparisons, found atom %s", atoms[0].Rel)
	}
	if len(cmps) == 0 {
		return nil, fmt.Errorf("cq: filter has no comparisons")
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errf(p.tok.pos, "trailing input")
	}
	return cmps, nil
}

// MustParseRule is ParseRule panicking on error; for tests and examples.
func MustParseRule(id, src string) *Rule {
	r, err := ParseRule(id, src)
	if err != nil {
		panic(err)
	}
	return r
}
