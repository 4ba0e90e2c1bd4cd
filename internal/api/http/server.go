// Package httpapi is the per-peer HTTP/JSON serving layer: the interface
// real clients use to query, load and update a coDB node without linking
// the library or speaking the binary peer-to-peer protocol.
//
// One Server fronts either a single peer (cmd/codb-peer) or a whole
// in-process network via a resolver (codb.Network, codb-shell), selected
// per request with the ?node= query parameter. Endpoints:
//
//	GET  /healthz            liveness (the process serves HTTP)
//	GET  /readyz             readiness (the peer's actor loop is serving)
//	POST /v1/query           evaluate a conjunctive query (sync JSON, or
//	                         NDJSON streaming with ?stream=ndjson)
//	POST /v1/insert          insert rows into a local relation
//	POST /v1/update          run a global or scoped update, return the report
//	GET  /v1/schema          the node's relation declarations
//	GET  /v1/stats           cumulative per-node export counters (sessions,
//	                         full/incremental/fallback exports, watermark
//	                         skips, incremental batches)
//	GET  /v1/stats/read      query-result cache counters
//	GET  /v1/stats/storage   storage engine report
//	GET  /v1/stats/wire      TCP frame/byte counters + outbox batching
//	GET  /v1/stats/propagation  per-link propagation policy counters
//	                            (hints, pulls, byte split, staleness)
//	GET  /v1/stats/membership   failure-detector snapshot (suspicion states
//	                            per acquaintance, suspect/down/heal counts,
//	                            directory totals)
//	PUT  /v1/links/{rule}/policy  set a link's propagation policy
//	                              {"mode": "pull", "filter": "x > 10"}
//	GET  /v1/reports         accumulated per-session statistics reports
//	GET  /v1/peers           pipes and discovered peers
//	POST /v1/membership/join   admit a node into the live network (the
//	                           fronting peer floods the directory delta and
//	                           hands the joiner rules + directory)
//	POST /v1/membership/leave  coordinated departure of a node (tombstone
//	                           flooded, survivors stop dialing it)
//
// Failures are JSON objects {"error": "..."} with a status code derived
// from the error's sentinel: cq.ErrBadQuery maps to 400, ErrUnknownNode to
// 404, a request body over wire.MaxFrame to 413, peer.ErrStopped to 503,
// context deadline/cancel to 504. A request body is one JSON value with no
// undeclared field and nothing after it.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/wire"
)

// ErrUnknownNode is the sentinel for requests addressing a node the
// gateway does not front; it maps to 404. codb.ErrUnknownPeer matches it.
var ErrUnknownNode = errors.New("api: unknown node")

// Options configures a gateway.
type Options struct {
	// Addr is the listen address (required; "127.0.0.1:0" for ephemeral).
	Addr string
	// Peer is the node this gateway fronts (single-peer deployments).
	Peer *peer.Peer
	// Resolve maps a ?node= name to a peer (multi-peer gateways). When
	// both Peer and Resolve are set, Peer serves requests without ?node=.
	Resolve func(node string) (*peer.Peer, error)
	// ReadHeaderTimeout, IdleTimeout harden the listener; zero values pick
	// sane defaults. No overall read/write timeout is set: queries and
	// updates are allowed to run long, bounded per request by ?timeout=.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// Logger receives request failures; nil discards them.
	Logger *slog.Logger
}

// Server is a running gateway.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	opts Options
	log  *slog.Logger
	// maxBody bounds a request body: wire.MaxFrame, the largest batch a
	// peer accepts from another.
	maxBody int64
}

// New binds the listen address and starts serving. A bind failure is
// returned, not hidden — callers print it and exit non-zero.
func New(opts Options) (*Server, error) {
	if opts.Addr == "" {
		return nil, fmt.Errorf("api: no listen address")
	}
	if opts.Peer == nil && opts.Resolve == nil {
		return nil, fmt.Errorf("api: no peer and no resolver")
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("api: listen %s: %w", opts.Addr, err)
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{ln: ln, opts: opts, log: log, maxBody: wire.MaxFrame}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/stats/read", s.handleReadStats)
	mux.HandleFunc("GET /v1/stats/storage", s.handleStorageStats)
	mux.HandleFunc("GET /v1/stats/wire", s.handleWireStats)
	mux.HandleFunc("GET /v1/stats/propagation", s.handlePropagationStats)
	mux.HandleFunc("GET /v1/stats/membership", s.handleMembershipStats)
	mux.HandleFunc("PUT /v1/links/{rule}/policy", s.handleLinkPolicy)
	mux.HandleFunc("GET /v1/reports", s.handleReports)
	mux.HandleFunc("GET /v1/peers", s.handlePeers)
	mux.HandleFunc("POST /v1/membership/join", s.handleMembershipJoin)
	mux.HandleFunc("POST /v1/membership/leave", s.handleMembershipLeave)
	rht := opts.ReadHeaderTimeout
	if rht == 0 {
		rht = 10 * time.Second
	}
	idle := opts.IdleTimeout
	if idle == 0 {
		idle = 2 * time.Minute
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: rht, IdleTimeout: idle}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and every in-flight request.
func (s *Server) Close() error { return s.srv.Close() }

// peerFor selects the peer a request addresses: ?node= through the
// resolver, otherwise the gateway's own peer.
func (s *Server) peerFor(r *http.Request) (*peer.Peer, error) {
	node := r.URL.Query().Get("node")
	if node == "" {
		if s.opts.Peer != nil {
			return s.opts.Peer, nil
		}
		return nil, fmt.Errorf("%w: request names no node and the gateway has no default", ErrUnknownNode)
	}
	if s.opts.Resolve != nil {
		return s.opts.Resolve(node)
	}
	if s.opts.Peer != nil && s.opts.Peer.Name() == node {
		return s.opts.Peer, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownNode, node)
}

// statusOf maps an error to its HTTP status via sentinel matching.
func statusOf(err error) int {
	switch {
	case errors.Is(err, cq.ErrBadQuery):
		return http.StatusBadRequest
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, peer.ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code := statusOf(err)
	s.log.Warn("request failed", "path", r.URL.Path, "code", code, "err", err)
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// decodeBody decodes a JSON request body into dst with numbers kept exact.
// The body is one JSON value of at most s.maxBody bytes with no field dst
// does not declare (a misspelt "mdoe" must not silently select the
// default) and nothing after it. A larger body fails with an
// *http.MaxBytesError (413), any other violation with cq.ErrBadQuery (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	if r.ContentLength > s.maxBody {
		// Declared too large: refuse without reading it.
		return fmt.Errorf("request body: %w", &http.MaxBytesError{Limit: s.maxBody})
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("trailing data after the JSON value")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err == nil {
		return nil
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		return fmt.Errorf("request body: %w", err)
	}
	return fmt.Errorf("%w: request body: %v", cq.ErrBadQuery, err)
}

// requestCtx applies an optional ?timeout= duration to the request context.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	spec := r.URL.Query().Get("timeout")
	if spec == "" {
		return r.Context(), func() {}, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("%w: bad timeout %q", cq.ErrBadQuery, spec)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		// A resolver-only gateway with no default node is ready when it
		// can serve at all.
		if s.opts.Peer == nil && r.URL.Query().Get("node") == "" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		s.writeErr(w, r, err)
		return
	}
	if !p.Running() {
		s.writeErr(w, r, fmt.Errorf("node %s: %w", p.Name(), peer.ErrStopped))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "node": p.Name()})
}

// queryRequest is the /v1/query body.
type queryRequest struct {
	// Query is the conjunctive query, e.g. "ans(x, n) :- emp(x, n), x > 10".
	Query string `json:"query"`
	// Mode is "all" (default) or "certain".
	Mode string `json:"mode"`
	// Local restricts evaluation to the node's local database (no
	// query-time fetching from acquaintances).
	Local bool `json:"local"`
}

func parseMode(spec string) (core.QueryMode, error) {
	switch spec {
	case "", "all":
		return core.AllAnswers, nil
	case "certain":
		return core.CertainAnswers, nil
	default:
		return 0, fmt.Errorf("%w: bad mode %q (want \"all\" or \"certain\")", cq.ErrBadQuery, spec)
	}
}

// wantsNDJSON reports whether the client asked for streaming results.
func wantsNDJSON(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req queryRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	st, err := p.Prepare(req.Query)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if wantsNDJSON(r) {
		s.streamQuery(w, st, mode, req.Local)
		return
	}
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer cancel()
	var got []relation.Tuple
	if req.Local {
		got, err = st.LocalQuery(mode)
	} else {
		got, err = st.Query(ctx, mode)
	}
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	rows := tuplesToJSON(got)
	writeJSON(w, http.StatusOK, map[string]any{"answers": rows, "count": len(rows)})
}

// streamQuery writes answers as NDJSON: one JSON array per answer row,
// then a final object line {"done":true,"count":n[,"report":{...}]}.
// Headers go out before evaluation completes, so failures mid-stream can
// only be reported in the trailer object's "error" field.
func (s *Server) streamQuery(w http.ResponseWriter, st *peer.Statement, mode core.QueryMode, local bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if local {
		rows, err := st.LocalQuery(mode)
		if err != nil {
			enc.Encode(map[string]any{"done": true, "count": 0, "error": err.Error()})
			return
		}
		for _, t := range rows {
			enc.Encode(tupleToJSON(t))
		}
		enc.Encode(map[string]any{"done": true, "count": len(rows)})
		flush()
		return
	}
	answers, reports, err := st.QueryStream(mode)
	if err != nil {
		enc.Encode(map[string]any{"done": true, "count": 0, "error": err.Error()})
		return
	}
	n := 0
	for t := range answers {
		enc.Encode(tupleToJSON(t))
		n++
		if n%64 == 0 {
			flush()
		}
	}
	rep := <-reports
	enc.Encode(map[string]any{"done": true, "count": n, "report": rep})
	flush()
}

// insertRequest is the /v1/insert body.
type insertRequest struct {
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req insertRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	def := p.Schema().Rel(req.Relation)
	if def == nil {
		s.writeErr(w, r, fmt.Errorf("%w: no relation %q", cq.ErrBadQuery, req.Relation))
		return
	}
	tuples, err := tuplesFromJSON(def, req.Rows)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := p.Insert(req.Relation, tuples...); err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"inserted": len(tuples)})
}

// updateRequest is the /v1/update body. An empty scope runs a global
// update; a non-empty scope runs the paper's query-dependent update over
// the listed relations of the node's schema.
type updateRequest struct {
	Scope []string `json:"scope"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var req updateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer cancel()
	var rep msg.UpdateReport
	if len(req.Scope) == 0 {
		rep, err = p.RunUpdate(ctx)
	} else {
		rep, err = p.RunScopedUpdate(ctx, req.Scope)
	}
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"report": rep})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	schema := p.Schema()
	type attrJSON struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	type relJSON struct {
		Name  string     `json:"name"`
		Attrs []attrJSON `json:"attrs"`
	}
	rels := make([]relJSON, 0, schema.Len())
	for _, name := range schema.Names() {
		def := schema.Rel(name)
		attrs := make([]attrJSON, len(def.Attrs))
		for i, a := range def.Attrs {
			attrs[i] = attrJSON{Name: a.Name, Type: a.Type.String()}
		}
		rels = append(rels, relJSON{Name: name, Attrs: attrs})
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "relations": rels})
}

func (s *Server) handleReadStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "available": true, "read": p.ReadStats()})
}

func (s *Server) handleStorageStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	stats, ok := p.StorageStats()
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "available": ok, "storage": stats})
}

func (s *Server) handleWireStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	frames, bytes, ok := p.WireStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"node": p.Name(), "available": ok,
		"frames_sent": frames, "bytes_sent": bytes,
		"outbox": p.OutboxStats(),
	})
}

// handleStats serves the node's cumulative export counters. Unlike
// /v1/reports these never roll out of the bounded reports ring, so
// long-lived peers keep exact totals.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "totals": p.ExportTotals()})
}

func (s *Server) handlePropagationStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "propagation": p.PropagationStats()})
}

func (s *Server) handleMembershipStats(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "membership": p.MembershipStats()})
}

// linkPolicyRequest is the PUT /v1/links/{rule}/policy body.
type linkPolicyRequest struct {
	// Mode is "push", "pull", "adaptive" or "filter".
	Mode string `json:"mode"`
	// Filter is an optional comma-separated comparison list over the
	// rule's frontier variables (required for mode "filter").
	Filter string `json:"filter"`
}

func (s *Server) handleLinkPolicy(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	rule := r.PathValue("rule")
	var req linkPolicyRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := p.SetLinkPolicy(rule, req.Mode, req.Filter); err != nil {
		s.writeErr(w, r, fmt.Errorf("%w: %v", cq.ErrBadQuery, err))
		return
	}
	mode, filter := req.Mode, req.Filter
	if mode == "" {
		mode = "push"
	}
	resp := map[string]any{"node": p.Name(), "rule": rule, "mode": mode}
	if filter != "" {
		resp["filter"] = filter
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	reports := p.Reports()
	writeJSON(w, http.StatusOK, map[string]any{"node": p.Name(), "reports": reports})
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	p, err := s.peerFor(r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":       p.Name(),
		"pipes":      p.Pipes(),
		"discovered": p.Discovered(),
	})
}
