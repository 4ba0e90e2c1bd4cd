package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
	"codb/internal/wire"
)

// statsGateway fronts two peers on one bus — "store", over an in-memory
// engine, and "med", a mediator — each declaring a one-column relation and
// holding one row of it.
func statsGateway(t *testing.T) string {
	t.Helper()
	bus := transport.NewBus()
	schema := relation.NewSchema()
	if err := schema.Add(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	db := storage.MustOpenMem()
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(schema); err != nil {
		t.Fatal(err)
	}
	peers := make(map[string]*peer.Peer)
	for name, w := range map[string]core.Wrapper{"store": core.NewStoreWrapper(db), "med": core.NewMediatorWrapper(schema)} {
		p, err := peer.New(peer.Options{Name: name, Transport: bus.MustJoin(name), Wrapper: w})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		if err := p.Insert("r", relation.Tuple{relation.Int(1)}); err != nil {
			t.Fatal(err)
		}
		peers[name] = p
	}
	return serve(t, peers)
}

// detectorGateway fronts two TCP peers, "a" and "b", running the suspicion
// detector and joined by one rule, so each tracks the other.
func detectorGateway(t *testing.T) string {
	t.Helper()
	trs := make(map[string]*transport.TCP)
	dir := make(map[string]string)
	for _, name := range []string{"a", "b"} {
		tr, err := transport.NewTCP(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		trs[name], dir[name] = tr, tr.Addr()
	}
	peers := make(map[string]*peer.Peer)
	for name, tr := range trs {
		db := storage.MustOpenMem()
		t.Cleanup(func() { db.Close() })
		if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
			t.Fatal(err)
		}
		p, err := peer.New(peer.Options{Name: name, Transport: tr, Wrapper: core.NewStoreWrapper(db),
			Directory: dir, SuspicionTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		peers[name] = p
	}
	for _, p := range peers {
		if err := p.AddRule("r1", "a.r(x) <- b.r(x)"); err != nil {
			t.Fatal(err)
		}
	}
	return serve(t, peers)
}

// serve fronts the peers with a gateway and returns its base URL.
func serve(t *testing.T, peers map[string]*peer.Peer) string {
	t.Helper()
	srv, err := New(Options{Addr: "127.0.0.1:0", Resolve: func(node string) (*peer.Peer, error) {
		if p := peers[node]; p != nil {
			return p, nil
		}
		return nil, ErrUnknownNode
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr()
}

// getObject fetches a JSON object, failing on any status but 200.
func getObject(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// keysOf returns an object's keys, sorted.
func keysOf(t *testing.T, obj map[string]json.RawMessage) []string {
	t.Helper()
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// field decodes one member of an object.
func field[T any](t *testing.T, obj map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(obj[key], &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

// TestStatsEndpointsShape pins the JSON shape of /v1/stats/read and
// /v1/stats/storage, and that both are available on a store-backed peer and
// on a mediator alike: every wrapper is a storage engine with a read path.
// It also pins /v1/stats/membership with the suspicion detector off and on.
func TestStatsEndpointsShape(t *testing.T) {
	base := statsGateway(t)
	for _, node := range []string{"store", "med"} {
		// One local query through the gateway, so the read path has a miss
		// to count.
		resp, err := http.Post(base+"/v1/query?node="+node, "application/json",
			strings.NewReader(`{"query": "ans(a) :- r(a)", "local": true}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: local query: %s", node, resp.Status)
		}

		read := getObject(t, base+"/v1/stats/read?node="+node)
		if got, want := keysOf(t, read), []string{"available", "node", "read"}; !slices.Equal(got, want) {
			t.Errorf("%s: /v1/stats/read keys %v, want %v", node, got, want)
		}
		if field[string](t, read, "node") != node || !field[bool](t, read, "available") {
			t.Errorf("%s: /v1/stats/read = node %s, available %s", node, read["node"], read["available"])
		}
		cache := field[map[string]json.RawMessage](t, read, "read")
		if got, want := keysOf(t, cache), []string{"Entries", "Hits", "Misses", "Stale"}; !slices.Equal(got, want) {
			t.Errorf("%s: read counters %v, want %v", node, got, want)
		}
		if misses := field[int](t, cache, "Misses"); misses != 1 {
			t.Errorf("%s: read path counted %d misses, want 1", node, misses)
		}

		st := getObject(t, base+"/v1/stats/storage?node="+node)
		if got, want := keysOf(t, st), []string{"available", "node", "storage"}; !slices.Equal(got, want) {
			t.Errorf("%s: /v1/stats/storage keys %v, want %v", node, got, want)
		}
		if field[string](t, st, "node") != node || !field[bool](t, st, "available") {
			t.Errorf("%s: /v1/stats/storage = node %s, available %s", node, st["node"], st["available"])
		}
		engine := field[map[string]json.RawMessage](t, st, "storage")
		want := []string{"GroupCommit", "LSN", "Relations", "SpillHits", "SpillMisses", "WAL", "WALBytes"}
		if got := keysOf(t, engine); !slices.Equal(got, want) {
			t.Errorf("%s: storage report keys %v, want %v", node, got, want)
		}
		rels := field[[]map[string]json.RawMessage](t, engine, "Relations")
		if len(rels) != 1 {
			t.Fatalf("%s: storage relations = %v, want r alone", node, rels)
		}
		if got, want := keysOf(t, rels[0]), []string{"Bytes", "Name", "Tuples"}; !slices.Equal(got, want) {
			t.Errorf("%s: relation report keys %v, want %v", node, got, want)
		}
		if field[string](t, rels[0], "Name") != "r" || field[int](t, rels[0], "Tuples") != 1 || field[int](t, rels[0], "Bytes") == 0 {
			t.Errorf("%s: storage relation = %v, want r holding 1 tuple", node, rels[0])
		}

		totals := field[map[string]json.RawMessage](t, getObject(t, base+"/v1/stats?node="+node), "totals")
		wantTotals := []string{"exports_fallback", "exports_full", "exports_incremental", "incremental_msgs", "sessions", "skipped_by_watermark"}
		if got := keysOf(t, totals); !slices.Equal(got, wantTotals) {
			t.Errorf("%s: /v1/stats totals %v, want %v", node, got, wantTotals)
		}

		ms := membership(t, base, node)
		if got, want := keysOf(t, ms), []string{"downs", "enabled", "heals", "live_peers", "suspects", "tombstones"}; !slices.Equal(got, want) {
			t.Errorf("%s: membership keys %v, want %v", node, got, want)
		}
		if field[bool](t, ms, "enabled") {
			t.Errorf("%s: detector reported enabled without a suspicion timeout", node)
		}
	}

	tcp := detectorGateway(t)
	for node, other := range map[string]string{"a": "b", "b": "a"} {
		ms := membership(t, tcp, node)
		if got, want := keysOf(t, ms), []string{"downs", "enabled", "heals", "live_peers", "states", "suspects", "tombstones"}; !slices.Equal(got, want) {
			t.Errorf("%s: membership keys %v, want %v", node, got, want)
		}
		if !field[bool](t, ms, "enabled") {
			t.Errorf("%s: detector reported disabled", node)
		}
		if got, want := field[map[string]string](t, ms, "states"), map[string]string{other: "alive"}; !maps.Equal(got, want) {
			t.Errorf("%s: membership states %v, want %v", node, got, want)
		}
		if field[int](t, ms, "live_peers") != 1 || field[int](t, ms, "tombstones") != 0 {
			t.Errorf("%s: directory totals %s live, %s tombstones; want 1, 0", node, ms["live_peers"], ms["tombstones"])
		}
	}
}

// membership fetches a node's /v1/stats/membership and returns its
// "membership" object, checking the envelope around it.
func membership(t *testing.T, base, node string) map[string]json.RawMessage {
	t.Helper()
	obj := getObject(t, base+"/v1/stats/membership?node="+node)
	if got, want := keysOf(t, obj), []string{"membership", "node"}; !slices.Equal(got, want) {
		t.Errorf("%s: /v1/stats/membership keys %v, want %v", node, got, want)
	}
	if field[string](t, obj, "node") != node {
		t.Errorf("%s: /v1/stats/membership node = %s", node, obj["node"])
	}
	return field[map[string]json.RawMessage](t, obj, "membership")
}

// queryServer is a gateway fronting one store-backed peer that holds r(1)
// and r(2), with request bodies bounded to maxBody bytes. Tests drive its
// handlers directly, with no listener.
func queryServer(t *testing.T, maxBody int64) (*Server, *peer.Peer) {
	t.Helper()
	db := storage.MustOpenMem()
	t.Cleanup(func() { db.Close() })
	if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Options{Name: "A", Transport: transport.NewBus().MustJoin("A"), Wrapper: core.NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	if err := p.Insert("r", relation.Tuple{relation.Int(1)}, relation.Tuple{relation.Int(2)}); err != nil {
		t.Fatal(err)
	}
	return &Server{opts: Options{Peer: p}, log: slog.New(slog.DiscardHandler), maxBody: maxBody}, p
}

// TestRequestBodyDecoding pins what a request body may be: one JSON value,
// every field declared, nothing after it, at most the body bound.
func TestRequestBodyDecoding(t *testing.T) {
	const query = `{"query": "ans(a) :- r(a)", "local": true`
	s, _ := queryServer(t, 256)
	cases := []struct {
		name    string
		handler http.HandlerFunc
		body    string
		chunked bool // no Content-Length: only reading finds the size
		code    int
		errHas  string
	}{
		{"query", s.handleQuery, query + `}`, false, http.StatusOK, ""},
		{"trailing whitespace", s.handleQuery, query + "}\n\t ", false, http.StatusOK, ""},
		{"misspelt field", s.handleQuery, query + `, "mdoe": "certain"}`, false, http.StatusBadRequest, `unknown field "mdoe"`},
		{"second value", s.handleQuery, query + `} {"query": "ans(a) :- r(a)"}`, false, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", s.handleQuery, query + `}x`, false, http.StatusBadRequest, "invalid character"},
		{"truncated", s.handleQuery, query, false, http.StatusBadRequest, "unexpected EOF"},
		{"declared over the bound", s.handleQuery, query + strings.Repeat(" ", 256) + `}`, false, http.StatusRequestEntityTooLarge, "too large"},
		{"read over the bound", s.handleQuery, query + strings.Repeat(" ", 256) + `}`, true, http.StatusRequestEntityTooLarge, "too large"},
		{"insert, unknown field", s.handleInsert, `{"relation": "r", "rows": [[3]], "row": [4]}`, false, http.StatusBadRequest, `unknown field "row"`},
		{"update, trailing data", s.handleUpdate, `{}{}`, false, http.StatusBadRequest, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(c.body))
			if c.chunked {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			c.handler(rec, req)
			if rec.Code != c.code {
				t.Fatalf("status %d, want %d; body %s", rec.Code, c.code, rec.Body)
			}
			var resp map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if c.errHas == "" {
				if resp["count"] != float64(2) {
					t.Fatalf("response %v, want 2 answers", resp)
				}
				return
			}
			if msg, _ := resp["error"].(string); !strings.Contains(msg, c.errHas) {
				t.Fatalf("error %q, want it to mention %q", msg, c.errHas)
			}
		})
	}
}

// TestRepeatedQueryText: the same text twice through /v1/query is one
// statement — the second request is answered from its kept answers — in
// the sync and the NDJSON form alike.
func TestRepeatedQueryText(t *testing.T) {
	s, p := queryServer(t, wire.MaxFrame)
	for i, path := range []string{"/v1/query", "/v1/query", "/v1/query?stream=ndjson"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"query": "ans(a) :- r(a)", "local": true}`))
		rec := httptest.NewRecorder()
		s.handleQuery(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		if want := `"count":2`; !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("request %d: body %s, want %s", i, rec.Body, want)
		}
	}
	if st := p.ReadStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("read path %+v, want 1 miss then 2 hits", st)
	}
}

// TestOversizeBodyRefused: a live gateway answers 413 to a body declared
// larger than wire.MaxFrame, without waiting for the body.
func TestOversizeBodyRefused(t *testing.T) {
	base := statsGateway(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/query?node=store HTTP/1.1\r\nHost: codb\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", wire.MaxFrame+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %s, want 413", resp.Status)
	}
}
