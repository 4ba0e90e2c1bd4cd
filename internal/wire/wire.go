// Package wire defines coDB's versioned peer-to-peer frame format — the
// byte layout every TCP pipe speaks, replacing the earlier per-connection
// gob streams with individually decodable frames.
//
// # Frame layout
//
//	offset  size  field
//	0       2     magic     0xC0DB, big-endian
//	2       1     version   protocol version of this frame
//	3       1     type      payload type tag (wire tags < 0x10, msg tags >= 0x10)
//	4       4     length    body length in bytes, big-endian
//	8       4     crc       CRC-32 (IEEE) of the body, big-endian
//	12      n     body      payload encoding (see internal/msg)
//
// Unlike gob, frames carry no stream state: each one decodes on its own,
// and a corrupt frame is detected by magic/CRC before the payload decoder
// runs. Undecodable frames still tear the pipe down (the peer layer
// re-establishes pipes and compensates the termination detector), but a
// slow or interleaved reader can no longer be desynchronised.
//
// # Handshake and version negotiation
//
// The first frame in each direction is a Hello (type TypeHello, version =
// sender's maximum) carrying the sender's node name and supported version
// range [Min, Max]. Each side computes the negotiated version as
// min(Max_a, Max_b); the handshake fails unless that is >= max(Min_a,
// Min_b). This implementation speaks exactly one version, V2, so a peer
// offering only older ones is refused at the handshake. Every subsequent
// frame on the connection must carry exactly the negotiated version;
// anything else — wrong version, unknown type, bad magic or CRC — fails the
// pipe cleanly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a coDB frame. A connection that opens with anything
// else is not speaking this protocol.
const Magic uint16 = 0xC0DB

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 12

// Protocol versions this implementation speaks.
const (
	// V2 is the frame protocol version: the header above with
	// internal/msg binary payload bodies — the session family (tags
	// 0x10–0x1F) and the lazy-link and heartbeat family (0x20+).
	// Version 1, which predated the 0x20+ tags, is not spoken.
	V2 = 2

	// MinVersion and MaxVersion bound the supported range offered in the
	// handshake.
	MinVersion = V2
	MaxVersion = V2
)

// TypeHello tags the handshake frame. Tags below 0x10 are reserved for the
// wire layer; payload tags (msg.Tag) start at 0x10.
const TypeHello byte = 0x01

// MaxFrame bounds a frame body to keep a malicious or corrupt peer from
// forcing huge allocations.
const MaxFrame = 64 << 20

// Frame decode errors. ReadFrame and ParseHello wrap these so callers can
// distinguish protocol violations from plain I/O failures.
var (
	ErrBadMagic     = errors.New("wire: bad magic")
	ErrBadCRC       = errors.New("wire: body CRC mismatch")
	ErrFrameTooBig  = errors.New("wire: frame exceeds MaxFrame")
	ErrBadVersion   = errors.New("wire: unsupported protocol version")
	ErrBadHello     = errors.New("wire: malformed hello")
	ErrNoCommonVers = errors.New("wire: no common protocol version")
)

// Header is a parsed frame header.
type Header struct {
	Version byte
	Type    byte
	Length  uint32
	CRC     uint32
}

// PutHeader writes the header for body into dst, which must be at least
// HeaderLen bytes.
func PutHeader(dst []byte, version, typ byte, body []byte) {
	binary.BigEndian.PutUint16(dst[0:2], Magic)
	dst[2] = version
	dst[3] = typ
	binary.BigEndian.PutUint32(dst[4:8], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[8:12], crc32.ChecksumIEEE(body))
}

// ParseHeader decodes and validates a raw header: magic and body bound are
// checked here, the CRC only once the body is read.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("wire: short header: %d bytes", len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version: b[2],
		Type:    b[3],
		Length:  binary.BigEndian.Uint32(b[4:8]),
		CRC:     binary.BigEndian.Uint32(b[8:12]),
	}
	if h.Length > MaxFrame {
		return Header{}, ErrFrameTooBig
	}
	return h, nil
}

// AppendFrame appends a complete frame (header + body) to dst.
func AppendFrame(dst []byte, version, typ byte, body []byte) []byte {
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], version, typ, body)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// ReadFrame reads one frame, verifying magic, size bound and body CRC.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	var raw [HeaderLen]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(raw[:])
	if err != nil {
		return Header{}, nil, err
	}
	body := make([]byte, h.Length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Header{}, nil, err
	}
	if crc32.ChecksumIEEE(body) != h.CRC {
		return Header{}, nil, ErrBadCRC
	}
	return h, body, nil
}

// WriteFrame writes one frame in a single Write call.
func WriteFrame(w io.Writer, version, typ byte, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooBig
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, HeaderLen+len(body)), version, typ, body))
	return err
}

// Hello is the handshake payload: the sender's identity and the protocol
// versions it can speak.
type Hello struct {
	Name string
	Min  byte
	Max  byte
}

// appendHelloBody encodes a hello body: min, max, uvarint name length, name.
func appendHelloBody(dst []byte, h Hello) []byte {
	dst = append(dst, h.Min, h.Max)
	dst = binary.AppendUvarint(dst, uint64(len(h.Name)))
	return append(dst, h.Name...)
}

// WriteHello sends the handshake frame for h. The frame's version field
// carries h.Max; a receiver reads a hello whatever version it carries.
func WriteHello(w io.Writer, h Hello) error {
	return WriteFrame(w, h.Max, TypeHello, appendHelloBody(nil, h))
}

// ReadHello reads and validates the first frame of a connection.
func ReadHello(r io.Reader) (Hello, error) {
	hdr, body, err := ReadFrame(r)
	if err != nil {
		return Hello{}, err
	}
	if hdr.Type != TypeHello {
		return Hello{}, fmt.Errorf("%w: first frame has type 0x%02x", ErrBadHello, hdr.Type)
	}
	return ParseHello(body)
}

// ParseHello decodes a hello body.
func ParseHello(body []byte) (Hello, error) {
	if len(body) < 3 {
		return Hello{}, fmt.Errorf("%w: %d byte body", ErrBadHello, len(body))
	}
	h := Hello{Min: body[0], Max: body[1]}
	n, sz := binary.Uvarint(body[2:])
	if sz <= 0 || n != uint64(len(body)-2-sz) {
		return Hello{}, fmt.Errorf("%w: bad name length", ErrBadHello)
	}
	if h.Min == 0 || h.Min > h.Max {
		return Hello{}, fmt.Errorf("%w: version range [%d,%d]", ErrBadHello, h.Min, h.Max)
	}
	h.Name = string(body[2+sz:])
	return h, nil
}

// Negotiate picks the version a connection will speak given both sides'
// hellos: the highest version both support, or ErrNoCommonVers when the
// ranges do not overlap.
func Negotiate(ours, theirs Hello) (byte, error) {
	v := ours.Max
	if theirs.Max < v {
		v = theirs.Max
	}
	if v < ours.Min || v < theirs.Min {
		return 0, fmt.Errorf("%w: ours [%d,%d], theirs [%d,%d]",
			ErrNoCommonVers, ours.Min, ours.Max, theirs.Min, theirs.Max)
	}
	return v, nil
}
