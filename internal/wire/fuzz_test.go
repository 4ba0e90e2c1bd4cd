package wire_test

import (
	"bytes"
	"testing"

	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/wire"
)

// FuzzWireFrame throws arbitrary bytes at the full inbound frame path the
// TCP read loop runs — header parse, CRC check, hello or payload decode —
// and checks three invariants: no panic or runaway allocation on garbage;
// for every frame that does decode, re-encoding the decoded envelope is a
// fixed point (encode(decode(encode(e))) == encode(e)), so decoding loses
// nothing the codec can express; and every decoded SessionData carries its
// bindings' keys (Keys[i] == Bindings[i].Key()), the wire bytes the importer
// stages them with. The committed corpus under
// testdata/fuzz/FuzzWireFrame seeds one frame per payload type (written by
// the golden-vector test's -update mode).
func FuzzWireFrame(f *testing.F) {
	for _, p := range goldenPayloads() {
		body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "N1", Payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire.AppendFrame(nil, wire.MaxVersion, byte(tag), body))
	}
	// A mixed-arity batch, an empty one, and a wide first tuple followed by
	// empty ones (its count × first arity is far more values than the frame
	// holds), beside the golden samples.
	wide := &msg.SessionData{SID: "s", RuleID: "r1", Bindings: []relation.Tuple{make(relation.Tuple, 64)}}
	for i := range wide.Bindings[0] {
		wide.Bindings[0][i] = relation.Bool(true)
	}
	for i := 0; i < 128; i++ {
		wide.Bindings = append(wide.Bindings, relation.Tuple{})
	}
	for _, d := range []*msg.SessionData{
		{SID: "s", RuleID: "r1", Bindings: []relation.Tuple{
			{}, {relation.Int(1)}, {relation.Str("x\x00y"), relation.Float(-0.5), relation.Null("n")},
		}},
		{SID: "s", RuleID: "r1"},
		wide,
	} {
		body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "N1", Payload: d})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire.AppendFrame(nil, wire.MaxVersion, byte(tag), body))
	}
	var hello bytes.Buffer
	if err := wire.WriteHello(&hello, wire.Hello{Name: "N1", Min: wire.MinVersion, Max: wire.MaxVersion}); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	f.Add([]byte{0xC0, 0xDB, 1, 0x11, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("not a frame at all"))
	// Well-formed frames under the unassigned tags 0x13, 0x1A, 0x21 and
	// 0x22: the decoder must refuse them as unknown, whatever the body.
	hint, _, err := msg.AppendEnvelope(nil, msg.Envelope{From: "N1", Payload: &msg.UpdateHint{RuleID: "r1", LSN: 42}})
	if err != nil {
		f.Fatal(err)
	}
	for _, tag := range []byte{0x13, 0x1A, 0x21, 0x22} {
		f.Add(wire.AppendFrame(nil, wire.MaxVersion, tag, hint))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := wire.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if h.Type < 0x10 {
			_, _ = wire.ParseHello(body)
			return
		}
		env, err := msg.DecodeEnvelope(msg.Tag(h.Type), body)
		if err != nil {
			return
		}
		checkKeys(t, env.Payload)
		// Accepted frame: the decoded envelope must re-encode, and the
		// re-encoding must be a fixed point. (The input bytes themselves
		// need not be reproduced — non-minimal varints decode but are
		// never produced.)
		b1, tag1, err := msg.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		env2, err := msg.DecodeEnvelope(tag1, b1)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		b2, tag2, err := msg.AppendEnvelope(nil, env2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if tag1 != tag2 || !bytes.Equal(b1, b2) {
			t.Fatalf("encoding not a fixed point:\n b1 %x\n b2 %x", b1, b2)
		}
	})
}
