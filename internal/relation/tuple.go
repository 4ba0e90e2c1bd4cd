package relation

import (
	"fmt"
	"strings"
)

// Tuple is an ordered list of values, one per attribute of its relation.
type Tuple []Value

// Clone returns a copy of the tuple that shares no backing storage.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples have the same length and equal values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare, with shorter
// tuples ordering before longer ones on a shared prefix.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// HasNull reports whether any value in the tuple is a marked null.
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.Kind == KindNull {
			return true
		}
	}
	return false
}

// Project returns the tuple restricted to the given attribute positions.
func (t Tuple) Project(idx []int) Tuple {
	p := make(Tuple, len(idx))
	for i, j := range idx {
		p[i] = t[j]
	}
	return p
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns the order-preserving binary encoding of the tuple, usable as
// an index key and as a deduplication identity. Encoding goes through a
// stack buffer, so a key of up to 64 bytes (seven ints) costs exactly one
// allocation — the returned string.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(EncodeTuple(buf[:0], t))
}

// Attr declares one attribute of a relation: a name and a type.
type Attr struct {
	Name string
	Type Type
}

// RelDef declares one relation of a node schema.
type RelDef struct {
	Name  string
	Attrs []Attr
}

// Arity returns the number of attributes.
func (r *RelDef) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (r *RelDef) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that a tuple is well-typed for this relation.
func (r *RelDef) Validate(t Tuple) error {
	if len(t) != len(r.Attrs) {
		return fmt.Errorf("relation %s: tuple arity %d, want %d", r.Name, len(t), len(r.Attrs))
	}
	for i, v := range t {
		if !r.Attrs[i].Type.Admits(v) {
			return fmt.Errorf("relation %s: attribute %s is %s, got %s value %s",
				r.Name, r.Attrs[i].Name, r.Attrs[i].Type, v.Kind, v)
		}
	}
	return nil
}

// String renders the definition in schema-file syntax, e.g.
// "emp(id int, name string)".
func (r *RelDef) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('(')
	for i, a := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		b.WriteString(a.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Schema is the shared database schema (DBS) of a node: the set of relation
// definitions other peers may reference in coordination rules.
type Schema struct {
	rels  map[string]*RelDef
	order []string // deterministic iteration order (declaration order)
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{rels: make(map[string]*RelDef)}
}

// Add declares a relation. It returns an error on duplicate names or empty
// definitions.
func (s *Schema) Add(def *RelDef) error {
	if def.Name == "" {
		return fmt.Errorf("schema: relation with empty name")
	}
	if len(def.Attrs) == 0 {
		return fmt.Errorf("schema: relation %s has no attributes", def.Name)
	}
	seen := make(map[string]bool, len(def.Attrs))
	for _, a := range def.Attrs {
		if a.Name == "" {
			return fmt.Errorf("schema: relation %s has an unnamed attribute", def.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema: relation %s: duplicate attribute %s", def.Name, a.Name)
		}
		seen[a.Name] = true
	}
	if _, dup := s.rels[def.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %s", def.Name)
	}
	s.rels[def.Name] = def
	s.order = append(s.order, def.Name)
	return nil
}

// MustAdd is Add panicking on error; for tests and literals.
func (s *Schema) MustAdd(def *RelDef) {
	if err := s.Add(def); err != nil {
		panic(err)
	}
}

// Rel returns the definition of the named relation, or nil.
func (s *Schema) Rel(name string) *RelDef { return s.rels[name] }

// Names returns the relation names in declaration order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of relations.
func (s *Schema) Len() int { return len(s.order) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := NewSchema()
	for _, name := range s.order {
		def := s.rels[name]
		attrs := make([]Attr, len(def.Attrs))
		copy(attrs, def.Attrs)
		c.MustAdd(&RelDef{Name: def.Name, Attrs: attrs})
	}
	return c
}

// String renders the schema one relation per line.
func (s *Schema) String() string {
	var b strings.Builder
	for i, name := range s.order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.rels[name].String())
	}
	return b.String()
}
