package relation

import (
	"bytes"
	"testing"
)

// FuzzTupleCodec fuzzes the order-preserving tuple codec (the values of
// coDB's inter-peer traffic and every index key). Properties:
//
//   - any byte string either fails to decode or decodes to a tuple whose
//     re-encoding reproduces the input exactly (the encoding is canonical:
//     decode ∘ encode = id on the image of encode, and nothing outside the
//     image decodes);
//   - for two decodable inputs, bytewise order of the encodings equals
//     Tuple.Compare of the decoded tuples (the order-preservation contract
//     the B+tree and the sent caches rely on);
//   - decoding never panics, whatever the input.
func FuzzTupleCodec(f *testing.F) {
	seedTuples := []Tuple{
		{},
		{Int(0)},
		{Int(-1), Int(1)},
		{Int(1<<62 + 12345)},
		{Str(""), Str("hello")},
		{Str("esc\x00aped"), Str("\x00\x01\xff")},
		{Bool(true), Bool(false)},
		{Float(0), Float(-0.0), Float(1e300)},
		{Float(1e+06)},
		{Null("p:1"), Null("")},
		{Int(42), Str("mixed"), Float(2.5), Bool(true), Null("u7")},
	}
	for _, t := range seedTuples {
		f.Add(EncodeTuple(nil, t), EncodeTuple(nil, t))
	}
	f.Add([]byte{}, []byte{0xFF})
	f.Add([]byte{byte(KindInt)}, []byte{byte(KindString), 'x'})
	f.Add([]byte{byte(KindString), 0x00}, []byte{byte(KindNull), 0x00, 0x02})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, okA := decodeCanonical(t, a)
		tb, okB := decodeCanonical(t, b)
		if !okA || !okB {
			return
		}
		// Order preservation: bytes.Compare on encodings == Tuple.Compare.
		// (Only for NaN-free tuples: NaN breaks Compare's trichotomy, but
		// the Value constructors never produce NaN — it can only enter
		// through crafted bytes.)
		if hasNaN(ta) || hasNaN(tb) {
			return
		}
		byteOrder := sign(bytes.Compare(a, b))
		tupleOrder := sign(ta.Compare(tb))
		if byteOrder != tupleOrder {
			t.Fatalf("order broken: bytes.Compare=%d, Tuple.Compare=%d for %v vs %v", byteOrder, tupleOrder, ta, tb)
		}
	})
}

// decodeCanonical decodes one input value by value until it is exhausted
// and, on success, asserts the canonical round-trip: re-encoding must
// reproduce the input, and DecodeTuple at the decoded arity must agree.
func decodeCanonical(t *testing.T, b []byte) (Tuple, bool) {
	t.Helper()
	var tp Tuple
	for off := 0; off < len(b); {
		v, n, err := DecodeValue(b[off:])
		if err != nil {
			return nil, false
		}
		tp = append(tp, v)
		off += n
	}
	if re := EncodeTuple(nil, tp); !bytes.Equal(re, b) {
		t.Fatalf("decode/encode not canonical: %x -> %v -> %x", b, tp, re)
	}
	fixed, err := DecodeTuple(b, len(tp))
	if err != nil {
		t.Fatalf("DecodeTuple rejected what DecodeValue accepted: %v", err)
	}
	if !fixed.Equal(tp) && !hasNaN(tp) {
		t.Fatalf("DecodeTuple = %v, GobDecode = %v", fixed, tp)
	}
	if n := tp.EncodedLen(); n != len(b) {
		t.Fatalf("EncodedLen = %d, encoding is %d bytes", n, len(b))
	}
	return tp, true
}

func hasNaN(t Tuple) bool {
	for _, v := range t {
		if v.Kind == KindFloat && v.Float != v.Float {
			return true
		}
	}
	return false
}
