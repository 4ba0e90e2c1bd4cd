package msg

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"codb/internal/relation"
)

// roundTrip encodes an envelope and decodes it back, as a connection does
// with the tag in the frame header.
func roundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	body, tag, err := AppendEnvelope(nil, e)
	if err != nil {
		t.Fatalf("encode %T: %v", e.Payload, err)
	}
	dec, err := DecodeEnvelope(tag, body)
	if err != nil {
		t.Fatalf("decode %s: %v", tag, err)
	}
	return dec
}

func TestNewSIDUniqueAndPrefixed(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		sid := NewSID("peer1")
		if !strings.HasPrefix(sid, "peer1-") {
			t.Fatalf("sid %q not prefixed", sid)
		}
		if seen[sid] {
			t.Fatalf("duplicate sid %q", sid)
		}
		seen[sid] = true
	}
}

// TestEncodeDecodeRoundTrip encodes and decodes one sample of every payload
// type the codec knows and requires the decoded payload to be deeply equal
// to the original. Every named tag must have a sample, so a payload type
// added without one fails here.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []relation.Tuple{
		{relation.Int(-7), relation.Str("a\x00b"), relation.Float(2.5), relation.Bool(true)},
		{relation.Null("d1~ff"), relation.Int(1 << 40)},
	}
	report := UpdateReport{
		SID: "s1", Kind: KindScoped, Origin: "a",
		StartUnixNano: 1, EndUnixNano: 2,
		MsgsPerRule: map[string]int{"r1": 2}, BytesPerRule: map[string]int{"r1": 64},
		TuplesPerRule: map[string]int{"r1": 3},
		SentMsgs:      1, SentBytes: 64, LongestPath: 3,
		Queried: []string{"c"}, SentTo: []string{"a"},
		NewTuples: 3, CompensatedLost: 1, ExportsIncremental: 1, CacheMisses: 1,
	}
	dir := []DirEntry{{Node: "a", Addr: "127.0.0.1:9000", Epoch: 2}, {Node: "b", Epoch: 3, Deleted: true}}
	payloads := []Payload{
		&SessionRequest{SID: "s1", Kind: KindUpdate, Origin: "a", Path: []string{"a", "b"},
			Rules: []RuleDef{{ID: "r1", Text: "A.p(x) <- B.q(x)"}}},
		&SessionData{SID: "s1", Kind: KindScoped, Origin: "a", RuleID: "r1", Bindings: tuples,
			Path: []string{"b"}, Seq: 3, Mode: ExportIncremental, Skipped: 17},
		// Mixed arities, growing past the slab the first tuple sized, and
		// a first tuple wider than the decoder's stack buffer.
		&SessionData{SID: "s1", RuleID: "r1", Bindings: []relation.Tuple{
			{}, {relation.Int(1)}, {relation.Str("b"), relation.Int(2), relation.Null("n")},
		}},
		&SessionData{SID: "s1", RuleID: "r1", Bindings: []relation.Tuple{
			intTuple(0, 9), intTuple(9, 2), intTuple(11, 12),
		}},
		// No bindings at all.
		&SessionData{SID: "s1", Kind: KindQuery, Origin: "a", RuleID: "r1", Seq: 1},
		&SessionAck{SID: "s1", N: 2},
		&SessionDone{SID: "s1", Origin: "a"},
		&RulesBroadcast{Version: 7, Text: "rule r1: ..."},
		&StatsRequest{ID: "q1", ReplyTo: "super", Addr: "127.0.0.1:9"},
		&StatsReport{ID: "q1", Node: "b", Reports: []UpdateReport{report}},
		&StartUpdateCmd{SID: "s1", ReplyTo: "super"},
		&UpdateFinished{SID: "s1", Node: "b", Report: report},
		&Batch{Payloads: []Payload{&SessionAck{SID: "s1", N: 1}, &UpdateHint{RuleID: "r1", LSN: 9}}},
		&JoinRequest{Node: "d", Addr: "127.0.0.1:9003"},
		&JoinAccept{Node: "a", Epoch: 4, RulesVersion: 2, RulesText: "node a\n", Directory: dir},
		&Leave{Node: "d", Epoch: 4},
		&DirectoryDelta{Entries: dir},
		&UpdateHint{RuleID: "r1", LSN: 1 << 33},
		&LinkDemand{RuleID: "r1", Mode: 1},
		&Heartbeat{Seq: 1 << 21},
	}
	covered := make(map[Tag]bool)
	for _, p := range payloads {
		tag, err := TagOf(p)
		if err != nil {
			t.Fatal(err)
		}
		covered[tag] = true
		dec := roundTrip(t, Envelope{From: "x", Payload: p})
		got := withoutKeys(t, dec.Payload)
		if dec.From != "x" || !reflect.DeepEqual(got, p) {
			t.Errorf("%s round trip:\n got  %#v\n want %#v", tag, got, p)
		}
		if p.Size() <= 0 {
			t.Errorf("%T.Size() = %d, want > 0", p, p.Size())
		}
		if dec.Payload.Size() != p.Size() {
			t.Errorf("%s: decoded Size() = %d, want %d", tag, dec.Payload.Size(), p.Size())
		}
	}
	for tag := Tag(0x10); tag < 0x40; tag++ {
		if !strings.HasPrefix(tag.String(), "tag(") && !covered[tag] {
			t.Errorf("payload %s has no round-trip sample", tag)
		}
	}
}

// withoutKeys checks the decoder's Keys invariant on a decoded SessionData
// (Keys[i] == Bindings[i].Key(), and no keys without bindings) and returns
// the payload with Keys cleared, for comparison with what was encoded.
// Other payloads are returned as they are.
func withoutKeys(t *testing.T, p Payload) Payload {
	t.Helper()
	d, ok := p.(*SessionData)
	if !ok {
		return p
	}
	if len(d.Keys) != len(d.Bindings) || (len(d.Bindings) == 0) != (d.Keys == nil) {
		t.Fatalf("decoded %d keys for %d bindings (keys nil: %v)", len(d.Keys), len(d.Bindings), d.Keys == nil)
	}
	for i, b := range d.Bindings {
		if d.Keys[i] != b.Key() {
			t.Fatalf("Keys[%d] = %x, want Bindings[%d].Key() = %x", i, d.Keys[i], i, b.Key())
		}
	}
	c := *d
	c.Keys = nil
	return &c
}

func intTuple(from, n int) relation.Tuple {
	t := make(relation.Tuple, n)
	for i := range t {
		t[i] = relation.Int(from + i)
	}
	return t
}

// TestUnassignedTagsRefused: 0x13, 0x1A, 0x21 and 0x22 name no payload, so
// a body tagged with any of them is refused as an unknown tag, however
// well-formed. 0x13 carried the per-link LinkClose notice.
func TestUnassignedTagsRefused(t *testing.T) {
	body, _, err := AppendEnvelope(nil, Envelope{From: "x", Payload: &UpdateHint{RuleID: "r1", LSN: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []Tag{0x13, 0x1A, 0x21, 0x22} {
		if name := tag.String(); !strings.HasPrefix(name, "tag(") {
			t.Errorf("tag 0x%02x is named %s", uint8(tag), name)
		}
		_, err := DecodeEnvelope(tag, body)
		if err == nil || !strings.Contains(err.Error(), "unknown payload tag") {
			t.Errorf("body tagged 0x%02x: err = %v, want an unknown-tag refusal", uint8(tag), err)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, tag := range []Tag{TagSessionData, TagSessionRequest, TagBatch, 0xEE} {
		if _, err := DecodeEnvelope(tag, []byte("not a frame")); err == nil {
			t.Errorf("garbage tagged %s accepted", tag)
		}
	}
}

func TestSessionDataRoundTripPreservesValues(t *testing.T) {
	in := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{
		{relation.Int(-5), relation.Float(2.5), relation.Str("x\x00y"), relation.Bool(true), relation.Null("d2~aa")},
	}}
	dec := roundTrip(t, Envelope{From: "n", Payload: in})
	out := dec.Payload.(*SessionData)
	if len(out.Bindings) != 1 || !out.Bindings[0].Equal(in.Bindings[0]) {
		t.Errorf("bindings = %v", out.Bindings)
	}
}

func TestSizeGrowsWithContent(t *testing.T) {
	small := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{{relation.Int(1)}}}
	big := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{
		{relation.Int(1)}, {relation.Int(2)}, {relation.Str("a long string value")},
	}}
	if small.Size() >= big.Size() {
		t.Errorf("Size: small=%d big=%d", small.Size(), big.Size())
	}
}

func TestKindString(t *testing.T) {
	if KindUpdate.String() != "update" || KindQuery.String() != "query" {
		t.Error("Kind names wrong")
	}
}

func TestBatchSizeAndRoundtrip(t *testing.T) {
	inner := []Payload{
		&SessionAck{SID: "s", N: 3},
		&SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{{relation.Int(1), relation.Int(2)}}},
	}
	b := &Batch{Payloads: inner}
	want := inner[0].Size() + inner[1].Size()
	if b.Size() != want {
		t.Errorf("Batch.Size = %d, want %d", b.Size(), want)
	}
	env := roundTrip(t, Envelope{From: "a", Payload: b})
	back, ok := env.Payload.(*Batch)
	if !ok || len(back.Payloads) != 2 {
		t.Fatalf("roundtrip = %+v", env.Payload)
	}
	if d, ok := back.Payloads[1].(*SessionData); !ok || len(d.Bindings) != 1 || d.Bindings[0][0] != relation.Int(1) {
		t.Errorf("batched data payload = %+v", back.Payloads[1])
	}
}

// TestDecodedTuplesAreSizedToTheirArity: all tuples of a batch share one
// arity, so every tuple is cut from the message's value slab with exactly
// that capacity — no slack, and appending to one never writes into its
// neighbour — whatever the arity is; a batch that does mix arities still
// decodes correctly, with its keys.
func TestDecodedTuplesAreSizedToTheirArity(t *testing.T) {
	for _, arity := range []int{1, 2, 4, 7} {
		in := &SessionData{SID: "s", RuleID: "r"}
		for i := 0; i < 8; i++ {
			row := make(relation.Tuple, arity)
			for j := range row {
				row[j] = relation.Int(i*10 + j)
			}
			in.Bindings = append(in.Bindings, row)
		}
		dec := roundTrip(t, Envelope{From: "n", Payload: in})
		out := dec.Payload.(*SessionData).Bindings
		for i, row := range out {
			if !row.Equal(in.Bindings[i]) {
				t.Fatalf("arity %d: tuple %d = %v, want %v", arity, i, row, in.Bindings[i])
			}
			if cap(row) != arity {
				t.Errorf("arity %d: tuple %d decoded into capacity %d", arity, i, cap(row))
			}
		}
	}
	mixed := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{
		{relation.Int(1)}, {relation.Int(2), relation.Str("b"), relation.Int(3)}, {relation.Int(4), relation.Int(5)},
	}}
	dec := roundTrip(t, Envelope{From: "n", Payload: mixed})
	got := dec.Payload.(*SessionData)
	for i, row := range got.Bindings {
		if !row.Equal(mixed.Bindings[i]) || cap(row) != len(row) {
			t.Errorf("mixed arities: tuple %d = %v (capacity %d), want %v", i, row, cap(row), mixed.Bindings[i])
		}
	}
	withoutKeys(t, got)
}

// TestDecodeAllocationIsBoundedByTheFrame: a frame whose first tuple is
// wide and whose later tuples are empty claims a slab of count × first
// arity values. The decoder must size it by the bytes the frame has left,
// so what it allocates stays proportional to the frame, not to that
// product (here 2,001 × 1,000 values, about 96 MB).
func TestDecodeAllocationIsBoundedByTheFrame(t *testing.T) {
	wide := make(relation.Tuple, 1000)
	for i := range wide {
		wide[i] = relation.Bool(i%2 == 0)
	}
	in := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{wide}}
	for i := 0; i < 2000; i++ {
		in.Bindings = append(in.Bindings, relation.Tuple{})
	}
	enc, tag, err := AppendEnvelope(nil, Envelope{From: "n", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec, err := DecodeEnvelope(tag, enc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Payload.(*SessionData).Bindings; len(got) != len(in.Bindings) || !got[0].Equal(wide) {
		t.Fatalf("decoded %d bindings, want %d with the wide one first", len(got), len(in.Bindings))
	}
	// A frame byte becomes at most one value, one tuple header and one key
	// header, plus its copy in the key string: under 128 bytes.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(enc)); alloc > limit {
		t.Errorf("decoding a %d-byte frame allocated %d bytes, want at most %d", len(enc), alloc, limit)
	}
}
