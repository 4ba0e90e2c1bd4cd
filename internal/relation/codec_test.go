package relation

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genValue draws a random value (no NaN floats: NaN breaks ordering).
func genValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null(randString(r))
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int64(r.Int63() - r.Int63())
	case 3:
		for {
			f := math.Float64frombits(r.Uint64())
			if !math.IsNaN(f) {
				return Float(f)
			}
		}
	default:
		return Str(randString(r))
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		// Bias toward 0x00 and 0xFF to stress the escaping.
		switch r.Intn(4) {
		case 0:
			b[i] = 0x00
		case 1:
			b[i] = 0xFF
		default:
			b[i] = byte(r.Intn(256))
		}
	}
	return string(b)
}

func genTuple(r *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = genValue(r)
	}
	return t
}

func TestCodecRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(seed int64, arity uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(arity%6) + 1
		orig := genTuple(r, n)
		enc := EncodeTuple(nil, orig)
		dec, err := DecodeTuple(enc, n)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		return reflect.DeepEqual(orig, dec)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCodecOrderPreservationQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 4000}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(4) + 1
		a, b := genTuple(r, n), genTuple(r, n)
		ea, eb := EncodeTuple(nil, a), EncodeTuple(nil, b)
		return sign(bytes.Compare(ea, eb)) == sign(a.Compare(b))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestCodecSingleValues(t *testing.T) {
	vals := []Value{
		Int(0), Int(-1), Int64(math.MaxInt64), Int64(math.MinInt64),
		Float(0), Float(-0.0), Float(math.Inf(1)), Float(math.Inf(-1)),
		Str(""), Str("a\x00b"), Str(string([]byte{0x00, 0xFF, 0x00})),
		Bool(true), Bool(false),
		Null(""), Null("p:1"),
	}
	for _, v := range vals {
		enc := EncodeValue(nil, v)
		dec, n, err := DecodeValue(enc)
		if err != nil {
			t.Errorf("decode(%v): %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("decode(%v): consumed %d of %d bytes", v, n, len(enc))
		}
		if dec != v {
			t.Errorf("roundtrip(%v) = %v", v, dec)
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decode of empty input should fail")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("bad kind tag should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("truncated int should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 'a'}); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindString), 0x00, 0x7A}); err == nil {
		t.Error("bad escape should fail")
	}
	// Trailing garbage after a well-formed tuple.
	enc := EncodeTuple(nil, Tuple{Int(1)})
	if _, err := DecodeTuple(append(enc, 0xAA), 1); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestTupleKeyIdentity(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := Tuple{Int(1), Str("x")}
	c := Tuple{Int(1), Str("y")}
	if a.Key() != b.Key() {
		t.Error("equal tuples must share keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples must have distinct keys")
	}
}

// Strings that embed the escape/terminator bytes must not confuse tuple
// boundaries: ("a\x00", "b") vs ("a", "\x00b") encode differently.
func TestCodecBoundaryConfusion(t *testing.T) {
	a := Tuple{Str("a\x00"), Str("b")}
	b := Tuple{Str("a"), Str("\x00b")}
	if a.Key() == b.Key() {
		t.Error("boundary confusion in tuple encoding")
	}
}

func TestEncodedLenMatchesEncoding(t *testing.T) {
	tuples := []Tuple{
		{Int(0), Int(-5), Int(1 << 40)},
		{Str(""), Str("abc"), Str("a\x00b")},
		{Bool(true), Bool(false)},
		{Float(3.25), Float(-0.5)},
		{Null("n1"), Null("")},
		{},
	}
	for _, tu := range tuples {
		want := len(EncodeTuple(nil, tu))
		if got := tu.EncodedLen(); got != want {
			t.Errorf("EncodedLen(%v) = %d, want %d", tu, got, want)
		}
		for _, v := range tu {
			if got, want := v.EncodedLen(), len(EncodeValue(nil, v)); got != want {
				t.Errorf("Value EncodedLen(%v) = %d, want %d", v, got, want)
			}
		}
	}
}
