package wire_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden frame fixtures and fuzz corpus seeds")

// goldenPayloads returns one deterministic sample per payload type,
// exercising every field kind the codec handles (strings, string slices,
// tuples of every value kind, sorted maps, signed counters, nesting).
func goldenPayloads() []msg.Payload {
	tuples := []relation.Tuple{
		{relation.Int(-7), relation.Str("a\x00b"), relation.Float(2.5), relation.Bool(true)},
		{relation.Null("unk"), relation.Int(1 << 40)},
	}
	report := msg.UpdateReport{
		SID:           "N1-1-abc",
		Kind:          msg.KindUpdate,
		Origin:        "N1",
		StartUnixNano: 1700000000000000001,
		EndUnixNano:   1700000000000000002,
		MsgsPerRule:   map[string]int{"r1": 2, "r2": 1},
		BytesPerRule:  map[string]int{"r1": 512},
		TuplesPerRule: map[string]int{"r2": 9},
		SentMsgs:      3, SentBytes: 640, LongestPath: 2,
		Queried: []string{"N2", "N3"}, SentTo: []string{"N2"},
		NewTuples: 12, CompensatedLost: 0,
		ExportsFull: 1, ExportsIncremental: 2, ExportsFallback: 0,
		SkippedByWatermark: 40, IncrementalMsgs: 2,
		EvalErrors: 0, CacheHits: 1, CacheMisses: 1,
	}
	return []msg.Payload{
		&msg.SessionRequest{
			SID: "N1-1-abc", Kind: msg.KindUpdate, Origin: "N1",
			Path:  []string{"N1", "N2"},
			Rules: []msg.RuleDef{{ID: "r1", Text: "r1: N2.s(x) <- N1.r(x)"}},
		},
		&msg.SessionData{
			SID: "N1-1-abc", Kind: msg.KindScoped, Origin: "N1", RuleID: "r1",
			Bindings: tuples, Path: []string{"N1"}, Seq: 3,
			Mode: msg.ExportIncremental, Skipped: 17,
		},
		&msg.SessionAck{SID: "N1-1-abc", N: 4},
		&msg.SessionDone{SID: "N1-1-abc", Origin: "N1"},
		&msg.RulesBroadcast{Version: 2, Text: "node N1 addr :0\nend\n"},
		&msg.StatsRequest{ID: "q-1", ReplyTo: "super", Addr: "127.0.0.1:9"},
		&msg.StatsReport{ID: "q-1", Node: "N1", Reports: []msg.UpdateReport{report}},
		&msg.StartUpdateCmd{SID: "N1-1-abc", ReplyTo: "super"},
		&msg.UpdateFinished{SID: "N1-1-abc", Node: "N1", Report: report},
		&msg.JoinRequest{Node: "N4", Addr: "127.0.0.1:7004"},
		&msg.JoinAccept{
			Node: "super", Epoch: 3, RulesVersion: 2,
			RulesText: "node N1 addr :0\nend\n",
			Directory: []msg.DirEntry{
				{Node: "N1", Addr: "127.0.0.1:7001", Epoch: 1},
				{Node: "N2", Addr: "", Epoch: 2, Deleted: true},
			},
		},
		&msg.Leave{Node: "N4", Epoch: 3},
		&msg.DirectoryDelta{Entries: []msg.DirEntry{
			{Node: "N4", Addr: "127.0.0.1:7004", Epoch: 3},
			{Node: "N5", Addr: "", Epoch: 9, Deleted: true},
		}},
		&msg.Batch{Payloads: []msg.Payload{
			&msg.SessionAck{SID: "N1-1-abc", N: 1},
			&msg.SessionDone{SID: "N1-1-abc", Origin: "N1"},
		}},
		&msg.UpdateHint{RuleID: "r1", LSN: 1 << 33},
		&msg.LinkDemand{RuleID: "r1", Mode: 1},
		&msg.Heartbeat{Seq: 1 << 21},
	}
}

// goldenFrame builds the full frame for a payload, exactly as the TCP
// transport writes it.
func goldenFrame(t *testing.T, p msg.Payload) ([]byte, msg.Tag) {
	t.Helper()
	body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "N1", Payload: p})
	if err != nil {
		t.Fatalf("encode %T: %v", p, err)
	}
	return wire.AppendFrame(nil, wire.MaxVersion, byte(tag), body), tag
}

func fixturePath(tag msg.Tag) string {
	return filepath.Join("testdata", strings.ToLower(tag.String())+".hex")
}

// seedDir holds the committed FuzzWireFrame corpus.
var seedDir = filepath.Join("testdata", "fuzz", "FuzzWireFrame")

// seedPath is where the corpus keeps a payload type's frame.
func seedPath(tag msg.Tag) string {
	return filepath.Join(seedDir, "seed_"+strings.ToLower(tag.String()))
}

// TestGoldenVectors pins the byte-level encoding of every payload type:
// an accidental format change (field order, varint width, map ordering)
// fails against the committed fixtures instead of silently forking the
// protocol. A fixture or corpus seed that no golden payload writes (left
// behind by a deleted payload type) fails it too.
func TestGoldenVectors(t *testing.T) {
	written := make(map[string]bool)
	for _, p := range goldenPayloads() {
		frame, tag := goldenFrame(t, p)
		written[fixturePath(tag)] = true
		written[seedPath(tag)] = true
		t.Run(tag.String(), func(t *testing.T) {
			path := fixturePath(tag)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(wrapHex(frame)), 0o644); err != nil {
					t.Fatal(err)
				}
				writeCorpusSeed(t, tag, frame)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			wantBytes, err := hex.DecodeString(strings.Join(strings.Fields(string(want)), ""))
			if err != nil {
				t.Fatalf("corrupt fixture %s: %v", path, err)
			}
			if !bytes.Equal(frame, wantBytes) {
				t.Fatalf("encoding of %s changed:\n got  %x\n want %x", tag, frame, wantBytes)
			}
			// The fixture must also decode back to the original payload.
			h, body, err := wire.ReadFrame(bytes.NewReader(wantBytes))
			if err != nil {
				t.Fatalf("fixture frame unreadable: %v", err)
			}
			if h.Version != wire.MaxVersion || h.Type != byte(tag) {
				t.Fatalf("fixture header = %+v, want version %d type %d", h, wire.MaxVersion, tag)
			}
			env, err := msg.DecodeEnvelope(msg.Tag(h.Type), body)
			if err != nil {
				t.Fatalf("fixture body undecodable: %v", err)
			}
			got := checkKeys(t, env.Payload)
			if env.From != "N1" || !reflect.DeepEqual(got, p) {
				t.Fatalf("decode mismatch:\n got  %#v\n want %#v", got, p)
			}
		})
	}
	for _, pattern := range []string{filepath.Join("testdata", "*.hex"), filepath.Join(seedDir, "seed_*")} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if !written[path] {
				t.Errorf("orphan fixture %s: no golden payload writes it", path)
			}
		}
	}
}

// checkKeys checks the decoder's Keys invariant on every SessionData in a
// decoded payload, batched ones included: one key per binding, Keys[i] ==
// Bindings[i].Key(). It returns the payload with Keys cleared (the field is
// never encoded), for comparison with what was encoded.
func checkKeys(t *testing.T, p msg.Payload) msg.Payload {
	t.Helper()
	switch m := p.(type) {
	case *msg.SessionData:
		if len(m.Keys) != len(m.Bindings) {
			t.Fatalf("decoded %d keys for %d bindings", len(m.Keys), len(m.Bindings))
		}
		for i, b := range m.Bindings {
			if m.Keys[i] != b.Key() {
				t.Fatalf("Keys[%d] = %x, want Bindings[%d].Key() = %x", i, m.Keys[i], i, b.Key())
			}
		}
		c := *m
		c.Keys = nil
		return &c
	case *msg.Batch:
		c := &msg.Batch{Payloads: make([]msg.Payload, len(m.Payloads))}
		for i, inner := range m.Payloads {
			c.Payloads[i] = checkKeys(t, inner)
		}
		return c
	}
	return p
}

// wrapHex renders bytes as line-wrapped hex for readable fixtures.
func wrapHex(b []byte) string {
	s := hex.EncodeToString(b)
	var sb strings.Builder
	for len(s) > 64 {
		sb.WriteString(s[:64])
		sb.WriteByte('\n')
		s = s[64:]
	}
	sb.WriteString(s)
	sb.WriteByte('\n')
	return sb.String()
}

// writeCorpusSeed commits a frame as a FuzzWireFrame corpus entry so the
// fuzzer always starts from every payload shape.
func writeCorpusSeed(t *testing.T, tag msg.Tag, frame []byte) {
	t.Helper()
	path := seedPath(tag)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHelloRoundTrip pins the handshake encoding and negotiation rules.
func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := wire.Hello{Name: "N1", Min: wire.MinVersion, Max: wire.MaxVersion}
	if err := wire.WriteHello(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := wire.ReadHello(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round trip: got %+v, want %+v", out, in)
	}
}

func TestNegotiate(t *testing.T) {
	mk := func(min, max byte) wire.Hello { return wire.Hello{Name: "x", Min: min, Max: max} }
	cases := []struct {
		ours, theirs wire.Hello
		want         byte
		ok           bool
	}{
		{mk(1, 1), mk(1, 1), 1, true},
		{mk(1, 3), mk(2, 5), 3, true},
		{mk(2, 2), mk(1, 1), 0, false}, // their max below our min
		{mk(1, 1), mk(2, 9), 0, false}, // our max below their min
	}
	for i, c := range cases {
		v, err := wire.Negotiate(c.ours, c.theirs)
		if c.ok && (err != nil || v != c.want) {
			t.Fatalf("case %d: got (%d, %v), want %d", i, v, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("case %d: expected negotiation failure, got version %d", i, v)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	frame, _ := goldenFrame(t, &msg.SessionAck{SID: "s", N: 1})

	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xFF // magic
	if _, _, err := wire.ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted magic accepted")
	}

	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01 // body byte: CRC must catch it
	if _, _, err := wire.ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted body accepted")
	}

	if _, _, err := wire.ReadFrame(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
