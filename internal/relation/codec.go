package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Order-preserving binary encoding of values and tuples.
//
// The encoding guarantees that for well-formed tuples t, u:
//
//	bytes.Compare(EncodeTuple(nil,t), EncodeTuple(nil,u)) == t.Compare(u)
//
// which lets the B+tree index and the sent-tuple caches operate directly on
// encoded keys. Each value starts with its kind tag (so cross-kind order
// matches Value.Compare), followed by a kind-specific payload:
//
//	null:   escaped label bytes + terminator
//	bool:   one byte 0/1
//	int:    8 bytes big-endian with the sign bit flipped
//	float:  8 bytes big-endian IEEE with order-fix transform
//	string: escaped bytes + terminator
//
// Strings and labels use 0x00-escaping (0x00 -> 0x00 0xFF) terminated by
// 0x00 0x01 so that prefixes order before extensions.

const (
	escByte  = 0x00
	escPad   = 0xFF
	termByte = 0x01
)

// EncodeValue appends the order-preserving encoding of v to dst.
func EncodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
		dst = appendEscaped(dst, v.Str)
	case KindBool:
		if v.Bool {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.Int)^(1<<63))
		dst = append(dst, buf[:]...)
	case KindFloat:
		bits := math.Float64bits(v.Float)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip all bits
		} else {
			bits |= 1 << 63 // positive floats: flip sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		dst = append(dst, buf[:]...)
	case KindString:
		dst = appendEscaped(dst, v.Str)
	}
	return dst
}

func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		dst = append(dst, c)
		if c == escByte {
			dst = append(dst, escPad)
		}
	}
	return append(dst, escByte, termByte)
}

// EncodeTuple appends the order-preserving encoding of every value of t.
func EncodeTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = EncodeValue(dst, v)
	}
	return dst
}

// EncodedLen returns len(EncodeValue(nil, v)) without allocating or
// encoding — the data-volume measure of the statistics module, on the hot
// path of every shipped tuple.
func (v Value) EncodedLen() int {
	switch v.Kind {
	case KindNull, KindString:
		n := 1 + 2 // tag + terminator
		for i := 0; i < len(v.Str); i++ {
			n++
			if v.Str[i] == escByte {
				n++
			}
		}
		return n
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 9
	default:
		return 1
	}
}

// EncodedLen returns len(EncodeTuple(nil, t)) without allocating.
func (t Tuple) EncodedLen() int {
	n := 0
	for _, v := range t {
		n += v.EncodedLen()
	}
	return n
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("codec: empty input")
	}
	kind := Kind(b[0])
	rest := b[1:]
	switch kind {
	case KindNull, KindString:
		s, n, err := decodeEscaped(rest)
		if err != nil {
			return Value{}, 0, err
		}
		return Value{Kind: kind, Str: s}, 1 + n, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("codec: truncated bool")
		}
		// Only the two canonical payloads decode: the encoding doubles as
		// a deduplication identity, so decode must invert encode exactly
		// (found by FuzzTupleCodec).
		if rest[0] > 1 {
			return Value{}, 0, fmt.Errorf("codec: bad bool byte 0x%02x", rest[0])
		}
		return Value{Kind: KindBool, Bool: rest[0] == 1}, 2, nil
	case KindInt:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("codec: truncated int")
		}
		u := binary.BigEndian.Uint64(rest[:8])
		return Value{Kind: KindInt, Int: int64(u ^ (1 << 63))}, 9, nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("codec: truncated float")
		}
		bits := binary.BigEndian.Uint64(rest[:8])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Value{Kind: KindFloat, Float: math.Float64frombits(bits)}, 9, nil
	default:
		return Value{}, 0, fmt.Errorf("codec: bad kind tag %d", b[0])
	}
}

func decodeEscaped(b []byte) (string, int, error) {
	var out []byte
	i := 0
	for i < len(b) {
		c := b[i]
		if c != escByte {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", 0, fmt.Errorf("codec: truncated escape")
		}
		switch b[i+1] {
		case escPad:
			out = append(out, escByte)
			i += 2
		case termByte:
			return string(out), i + 2, nil
		default:
			return "", 0, fmt.Errorf("codec: bad escape byte 0x%02x", b[i+1])
		}
	}
	return "", 0, fmt.Errorf("codec: unterminated string")
}

// DecodeTuple decodes exactly arity values from b.
func DecodeTuple(b []byte, arity int) (Tuple, error) {
	t := make(Tuple, 0, arity)
	off := 0
	for i := 0; i < arity; i++ {
		v, n, err := DecodeValue(b[off:])
		if err != nil {
			return nil, fmt.Errorf("codec: value %d: %w", i, err)
		}
		t = append(t, v)
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("codec: %d trailing bytes after %d values", len(b)-off, arity)
	}
	return t, nil
}
