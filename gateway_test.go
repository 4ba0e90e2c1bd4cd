package codb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"codb/internal/transport"
)

// postJSON posts a JSON body and decodes a JSON response, returning the
// status code and the decoded object.
func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestGatewayEndToEnd runs a two-peer TCP network with HTTP gateways and
// drives the full client surface over the wire: insert, global update,
// sync and streaming queries, stats, health, and the error mapping.
func TestGatewayEndToEnd(t *testing.T) {
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{TCP: true},
		HTTP:      HTTPGroup{Enable: true},
	})
	defer nw.Close()
	nw.MustAddPeer("hospital", "patient(id int, name string)")
	nw.MustAddPeer("clinic", "visitor(id int, name string)")
	nw.MustAddRule("r1", `hospital.patient(x, n) <- clinic.visitor(x, n)`)

	clinicURL, ok := nw.PeerHTTPAddr("clinic")
	if !ok {
		t.Fatal("no HTTP gateway for clinic")
	}
	hospitalURL, ok := nw.PeerHTTPAddr("hospital")
	if !ok {
		t.Fatal("no HTTP gateway for hospital")
	}
	clinic := "http://" + clinicURL
	hospital := "http://" + hospitalURL

	if code, body := getJSON(t, hospital+"/healthz"); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	if code, body := getJSON(t, hospital+"/readyz"); code != 200 || body["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, body)
	}

	code, body := postJSON(t, clinic+"/v1/insert", map[string]any{
		"relation": "visitor",
		"rows":     []any{[]any{1, "ann"}, []any{2, "bob"}},
	})
	if code != 200 || body["inserted"] != float64(2) {
		t.Fatalf("insert: %d %v", code, body)
	}

	code, body = postJSON(t, hospital+"/v1/update", map[string]any{})
	if code != 200 {
		t.Fatalf("update: %d %v", code, body)
	}
	rep, _ := body["report"].(map[string]any)
	if rep == nil || rep["Origin"] != "hospital" {
		t.Fatalf("update report: %v", body)
	}

	code, body = postJSON(t, hospital+"/v1/query", map[string]any{
		"query": `ans(n) :- patient(x, n)`,
		"local": true,
	})
	if code != 200 || body["count"] != float64(2) {
		t.Fatalf("local query: %d %v", code, body)
	}

	// Distributed sync query from the clinic side: nothing maps into the
	// clinic's schema, so it sees only its own data.
	code, body = postJSON(t, clinic+"/v1/query", map[string]any{
		"query": `ans(x, n) :- visitor(x, n)`,
	})
	if code != 200 || body["count"] != float64(2) {
		t.Fatalf("distributed query: %d %v", code, body)
	}

	// Streaming NDJSON: two row lines then a done trailer with the report.
	resp, err := http.Post(hospital+"/v1/query?stream=ndjson", "application/json",
		strings.NewReader(`{"query": "ans(x, n) :- patient(x, n)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []map[string]any
	var rows int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var arr []any
		if err := json.Unmarshal(sc.Bytes(), &arr); err == nil {
			rows++
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q", sc.Text())
		}
		lines = append(lines, obj)
	}
	if rows != 2 || len(lines) != 1 || lines[0]["done"] != true || lines[0]["count"] != float64(2) {
		t.Fatalf("stream: %d rows, trailer %v", rows, lines)
	}

	// Wire stats flow over real TCP in this network, so the update must
	// have moved frames.
	code, body = getJSON(t, hospital+"/v1/stats/wire")
	if code != 200 || body["available"] != true {
		t.Fatalf("wire stats: %d %v", code, body)
	}
	if f, _ := body["frames_sent"].(float64); f == 0 {
		t.Fatalf("wire stats counted no frames: %v", body)
	}
	frames, wireBytes, ok := nw.PeerWireStats("hospital")
	if !ok || frames == 0 || wireBytes == 0 {
		t.Fatalf("PeerWireStats = %d, %d, %v", frames, wireBytes, ok)
	}

	// The resolver reaches any network node through any gateway.
	code, body = getJSON(t, hospital+"/v1/schema?node=clinic")
	if code != 200 || body["node"] != "clinic" {
		t.Fatalf("cross-node schema: %d %v", code, body)
	}

	// Error mapping: unknown node 404, bad query 400, bad rows 400.
	if code, body = getJSON(t, hospital+"/v1/schema?node=nowhere"); code != 404 {
		t.Fatalf("unknown node: %d %v", code, body)
	}
	code, body = postJSON(t, hospital+"/v1/query", map[string]any{"query": "not a query"})
	if code != 400 {
		t.Fatalf("bad query: %d %v", code, body)
	}
	code, body = postJSON(t, clinic+"/v1/insert", map[string]any{
		"relation": "visitor",
		"rows":     []any{[]any{"not-an-int", "ann"}},
	})
	if code != 400 {
		t.Fatalf("bad row: %d %v", code, body)
	}
}

// TestGatewaySentinelErrors pins the public sentinels to the Network
// methods that return them.
func TestGatewaySentinelErrors(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")

	if err := nw.Insert("ghost", "r", Row(Int(1))); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Insert unknown peer: %v", err)
	}
	if _, err := nw.Query(ctxT(t), "ghost", "ans(x) :- r(x)", AllAnswers); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Query unknown peer: %v", err)
	}
	if _, err := nw.LocalQuery("a", "syntax {{", AllAnswers); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad query: %v", err)
	}
	p := nw.Peer("a")
	nw.RemovePeer("a")
	if err := p.Insert("r", Row(Int(2))); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("stopped peer: %v", err)
	}
}

// TestGatewayReadyzAfterStop verifies readiness flips when the peer stops
// underneath a still-listening gateway.
func TestGatewayReadyzAfterStop(t *testing.T) {
	nw := NewNetworkWithOptions(NetworkOptions{HTTP: HTTPGroup{Enable: true}})
	defer nw.Close()
	nw.MustAddPeer("solo", "r(x int)")
	addr, _ := nw.PeerHTTPAddr("solo")
	base := "http://" + addr
	if code, _ := getJSON(t, base+"/readyz"); code != 200 {
		t.Fatalf("readyz before stop: %d", code)
	}
	nw.Peer("solo").Stop()
	code, body := getJSON(t, base+"/readyz")
	if code != 503 {
		t.Fatalf("readyz after stop: %d %v", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "stopped") {
		t.Fatalf("readyz error: %v", body)
	}
}

// TestGatewayNDJSONAcceptHeader exercises stream negotiation through the
// Accept header rather than the query parameter.
func TestGatewayNDJSONAcceptHeader(t *testing.T) {
	nw := NewNetworkWithOptions(NetworkOptions{HTTP: HTTPGroup{Enable: true}})
	defer nw.Close()
	nw.MustAddPeer("n", "r(x int)")
	if err := nw.Insert("n", "r", Row(Int(5))); err != nil {
		t.Fatal(err)
	}
	addr, _ := nw.PeerHTTPAddr("n")
	req, err := http.NewRequest("POST", fmt.Sprintf("http://%s/v1/query", addr),
		strings.NewReader(`{"query": "ans(x) :- r(x)", "local": true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(string(raw))
	if want := "[5]\n{\"count\":1,\"done\":true}"; got != want {
		t.Fatalf("NDJSON body = %q, want %q", got, want)
	}
}

// TestGatewayNDJSONTimeout: a streamed query honours ?timeout=. With its
// exporter silenced, the session cannot finish; the stream ends at the
// bound all the same, with the ctx error in its trailer.
func TestGatewayNDJSONTimeout(t *testing.T) {
	var silence *transport.Partitioner
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{TCP: true, Wrap: func(node string, tr transport.Transport) transport.Transport {
			if node != "b" {
				return tr
			}
			silence = transport.NewPartitioner(tr)
			return silence
		}},
		HTTP: HTTPGroup{Enable: true},
	})
	defer nw.Close()
	nw.MustAddPeer("a", "r(x int)")
	nw.MustAddPeer("b", "r(x int)")
	nw.MustAddRule("r1", `a.r(x) <- b.r(x)`)
	silence.Partition("a")
	addr, _ := nw.PeerHTTPAddr("a")
	client := &http.Client{Timeout: 10 * time.Second}
	var body []byte
	within(t, 5*time.Second, "NDJSON query with ?timeout=100ms", func() {
		resp, err := client.Post("http://"+addr+"/v1/query?stream=ndjson&timeout=100ms",
			"application/json", strings.NewReader(`{"query": "ans(x) :- r(x)"}`))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
	})
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var trailer map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	if msg, _ := trailer["error"].(string); trailer["done"] != true || !strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("trailer = %v, want done with a deadline error", trailer)
	}
}
