// Package relation defines the relational data model shared by every layer
// of coDB: typed values (including the marked nulls produced by existential
// variables in coordination rules), tuples, relation schemas, and an
// order-preserving binary codec used for index keys and duplicate detection.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime kinds a Value can take.
type Kind uint8

const (
	// KindNull is a marked (labelled) null, minted for existential
	// variables during rule application. Two nulls are equal iff their
	// labels are equal.
	KindNull Kind = iota
	// KindBool is a boolean.
	KindBool
	// KindInt is a signed 64-bit integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single attribute value. The zero Value is the anonymous marked
// null (label ""); named nulls carry their label in Str. Value is a
// comparable struct (no slices), so it can be used directly as a map key.
type Value struct {
	Kind  Kind
	Int   int64   // valid when Kind==KindInt
	Float float64 // valid when Kind==KindFloat
	Str   string  // valid when Kind==KindString; null label when Kind==KindNull
	Bool  bool    // valid when Kind==KindBool
}

// Int64 returns an integer value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Int returns an integer value from a machine int.
func Int(v int) Value { return Value{Kind: KindInt, Int: int64(v)} }

// Float returns a float value.
func Float(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the canonical fmt.Stringer method name.)
func String_(v string) Value { return Value{Kind: KindString, Str: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, Str: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// Null returns a marked null with the given label. The chase labels the
// nulls it mints by a hash of the rule, the existential variable and the
// binding that produce them.
func Null(label string) Value { return Value{Kind: KindNull, Str: label} }

// IsNull reports whether v is a (marked) null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// NullLabel returns the label of a marked null ("" for non-nulls).
func (v Value) NullLabel() string {
	if v.Kind != KindNull {
		return ""
	}
	return v.Str
}

// String renders the value for display and for the shell/report output.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		if v.Str == "" {
			return "⊥"
		}
		return "⊥" + v.Str
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.Kind))
	}
}

// Equal reports value identity: whether v and w encode alike, which is what
// makes two tuples one key. Marked nulls are equal iff their labels are
// equal; values of different kinds are never equal (no numeric coercion:
// schemas are typed, so kinds always line up for well-typed data). Floats
// compare by bits, not by ==: -0.0 and +0.0 are two values, and NaN is
// equal to itself.
func (v Value) Equal(w Value) bool {
	if v.Kind == KindFloat {
		return w.Kind == KindFloat && math.Float64bits(v.Float) == math.Float64bits(w.Float)
	}
	return v == w
}

// Compare orders values: null < bool < int < float < string across kinds
// (kind order is only used for heterogeneous data, e.g. index keys over
// mixed columns); within a kind, the natural order applies. Nulls order by
// label. Returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	if v.Kind != w.Kind {
		if v.Kind < w.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindNull:
		return strings.Compare(v.Str, w.Str)
	case KindBool:
		switch {
		case v.Bool == w.Bool:
			return 0
		case !v.Bool:
			return -1
		default:
			return 1
		}
	case KindInt:
		switch {
		case v.Int < w.Int:
			return -1
		case v.Int > w.Int:
			return 1
		default:
			return 0
		}
	case KindFloat:
		switch {
		case v.Float < w.Float:
			return -1
		case v.Float > w.Float:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.Str, w.Str)
	default:
		return 0
	}
}

// Type is the declared type of a schema attribute.
type Type uint8

const (
	// TInt is the 64-bit integer attribute type.
	TInt Type = iota + 1
	// TFloat is the 64-bit float attribute type.
	TFloat
	// TString is the string attribute type.
	TString
	// TBool is the boolean attribute type.
	TBool
)

// String returns the type name used in schema files.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseType parses a type name as written in schema files.
func ParseType(s string) (Type, error) {
	switch s {
	case "int":
		return TInt, nil
	case "float":
		return TFloat, nil
	case "string", "str", "text":
		return TString, nil
	case "bool":
		return TBool, nil
	default:
		return 0, fmt.Errorf("unknown attribute type %q", s)
	}
}

// Admits reports whether a value is acceptable for an attribute of this
// type. Marked nulls are admitted by every type (they stand for an unknown
// value of that type).
func (t Type) Admits(v Value) bool {
	if v.Kind == KindNull {
		return true
	}
	switch t {
	case TInt:
		return v.Kind == KindInt
	case TFloat:
		return v.Kind == KindFloat
	case TString:
		return v.Kind == KindString
	case TBool:
		return v.Kind == KindBool
	default:
		return false
	}
}
