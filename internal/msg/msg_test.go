package msg

import (
	"strings"
	"testing"

	"codb/internal/relation"
)

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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payloads := []Payload{
		&SessionRequest{SID: "s1", Kind: KindUpdate, Origin: "a", Path: []string{"a", "b"},
			Rules: []RuleDef{{ID: "r1", Text: "A.p(x) <- B.q(x)"}}},
		&SessionData{SID: "s1", RuleID: "r1", Seq: 3, Path: []string{"b"},
			Bindings: []relation.Tuple{{relation.Int(1), relation.Null("d1~ff")}}},
		&SessionAck{SID: "s1", N: 2},
		&LinkClose{SID: "s1", RuleID: "r1"},
		&SessionDone{SID: "s1", Origin: "a"},
		&RulesBroadcast{Version: 7, Text: "rule r1: ..."},
		&StatsRequest{ID: "q1"},
		&StatsReport{ID: "q1", Node: "b", Reports: []UpdateReport{{
			SID: "s1", Kind: KindUpdate, Origin: "a",
			MsgsPerRule: map[string]int{"r1": 2}, LongestPath: 3,
			Queried: []string{"c"}, SentTo: []string{"a"},
		}}},
		&Discovery{Known: map[string]string{"a": "127.0.0.1:9000"}},
	}
	for _, p := range payloads {
		enc, err := Encode(Envelope{From: "x", Payload: p})
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		if dec.From != "x" {
			t.Errorf("From = %q", dec.From)
		}
		if _, ok := dec.Payload.(Payload); !ok {
			t.Errorf("decoded payload %T does not implement Payload", dec.Payload)
		}
		if p.Size() <= 0 {
			t.Errorf("%T.Size() = %d, want > 0", p, p.Size())
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSessionDataRoundTripPreservesValues(t *testing.T) {
	in := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{
		{relation.Int(-5), relation.Float(2.5), relation.Str("x\x00y"), relation.Bool(true), relation.Null("d2~aa")},
	}}
	enc, err := Encode(Envelope{From: "n", Payload: in})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
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
	enc, err := Encode(Envelope{From: "a", Payload: b})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := env.Payload.(*Batch)
	if !ok || len(back.Payloads) != 2 {
		t.Fatalf("roundtrip = %+v", env.Payload)
	}
	if d, ok := back.Payloads[1].(*SessionData); !ok || len(d.Bindings) != 1 || d.Bindings[0][0] != relation.Int(1) {
		t.Errorf("batched data payload = %+v", back.Payloads[1])
	}
}

// TestDecodedTuplesAreSizedToTheirArity: all tuples of a batch share one
// arity, so every tuple after the first is decoded into exactly that
// capacity — one allocation each and no slack — whatever the arity is; a
// batch that does mix arities still decodes correctly.
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
		enc, err := Encode(Envelope{From: "n", Payload: in})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		out := dec.Payload.(*SessionData).Bindings
		for i, row := range out {
			if !row.Equal(in.Bindings[i]) {
				t.Fatalf("arity %d: tuple %d = %v, want %v", arity, i, row, in.Bindings[i])
			}
			if i > 0 && cap(row) != arity {
				t.Errorf("arity %d: tuple %d decoded into capacity %d", arity, i, cap(row))
			}
		}
	}
	mixed := &SessionData{SID: "s", RuleID: "r", Bindings: []relation.Tuple{
		{relation.Int(1)}, {relation.Int(2), relation.Str("b"), relation.Int(3)}, {relation.Int(4), relation.Int(5)},
	}}
	enc, err := Encode(Envelope{From: "n", Payload: mixed})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range dec.Payload.(*SessionData).Bindings {
		if !row.Equal(mixed.Bindings[i]) {
			t.Errorf("mixed arities: tuple %d = %v, want %v", i, row, mixed.Bindings[i])
		}
	}
}
