package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"codb"
	"codb/internal/cq"
)

// The rate ladder of http-openloop, requests per second, pinned at the
// baseline (two-connection capacity about 3,000 requests/s): R1 and R2 hold
// with a local-query p99 of 3 and 6 ms, R3 sits at the knee (p99 about
// 45 ms) and R4 exceeds capacity, so its completion rate is the saturated
// throughput. No rung's p99 lies within a factor of two of the 20 ms limit.
var httpLadder = [4]float64{200, 400, 2400, 4800}

const (
	httpWorkers = 2    // keep-alive connections, one worker each
	httpLimitMs = 20.0 // local-query p99 limit, from due time
)

func rungName(r int) string { return fmt.Sprintf("@R%d", r+1) }

// httpOpenLoop: a materialised 4-node chain behind one gateway, driven open
// loop at four fixed rates with a mix of local queries, distributed queries
// and one-row inserts at the head.
type httpOpenLoop struct {
	*base
	url       string
	clients   [httpWorkers]*http.Client
	localBody [][]byte // request bodies by key index
	distBody  [][]byte // by hot key index
	localWant []int    // rows a local lookup of key index answers at the head
	issued    int      // requests scheduled so far: indexes the pattern
	inserted  atomic.Int64
	respBytes atomic.Int64 // local-query response bytes
	respRows  atomic.Int64
	// okRate and satRPS are the last measured window's ladder outcome.
	okRate, satRPS float64
	rungs          map[string]metric
}

func newHTTPOpenLoop(b *base) (*httpOpenLoop, error) {
	w := &httpOpenLoop{base: b}
	rows := map[int64]int{}
	for _, t := range b.fix["N0"][relName] {
		rows[t[0].Int]++
	}
	body := func(key int, local bool) []byte {
		out, _ := json.Marshal(map[string]any{"query": fmt.Sprintf("ans(v) :- data(%d, v)", key), "local": local})
		return out
	}
	for i, key := range b.in.Keys {
		w.localBody = append(w.localBody, body(key, true))
		w.localWant = append(w.localWant, rows[int64(key)])
		if i < httpHot {
			w.distBody = append(w.distBody, body(key, false))
		}
	}
	return w, nil
}

func (w *httpOpenLoop) setup() (err error) {
	w.inserted.Store(0)
	if w.nw, err = buildNetwork(w.in, tcpOptions, nil); err != nil {
		return err
	}
	if err := seedData(w.nw, w.in); err != nil {
		return err
	}
	if _, err := w.nw.Update(context.Background(), "N0"); err != nil {
		return err
	}
	addr, err := w.nw.StartGateway("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + addr
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return nil
}

func (w *httpOpenLoop) teardown() {
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	w.base.teardown()
}

// post sends one request and returns the response's "count" or "inserted".
func (w *httpOpenLoop) post(worker int, path string, body []byte) (n int, size int, err error) {
	resp, err := w.clients[worker].Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var reply struct{ Count, Inserted int }
	if err := json.Unmarshal(raw, &reply); err != nil {
		return 0, 0, err
	}
	return reply.Count + reply.Inserted, len(raw), nil
}

// issue performs request i of the pattern.
func (w *httpOpenLoop) issue(base int) func(worker, i int) (string, error) {
	return func(worker, i int) (string, error) {
		e := w.in.Sched[(base+i)%len(w.in.Sched)]
		switch e.Kind {
		case 'i':
			k := w.inserted.Add(1)
			body := fmt.Appendf(nil, `{"relation":"data","rows":[[%d,%d]]}`, burstBase+k, k)
			n, _, err := w.post(worker, "/v1/insert?node=N0", body)
			if err == nil && n != 1 {
				err = fmt.Errorf("insert acknowledged %d rows, want 1", n)
			}
			return "insert", err
		case 'd':
			n, _, err := w.post(worker, "/v1/query?node=N0", w.distBody[e.Key])
			if err == nil && n != httpNodes {
				err = fmt.Errorf("distributed query answered %d rows, want %d", n, httpNodes)
			}
			return "dist", err
		default:
			n, size, err := w.post(worker, "/v1/query?node=N0", w.localBody[e.Key])
			if err == nil && n != w.localWant[e.Key] {
				err = fmt.Errorf("local query answered %d rows, want %d", n, w.localWant[e.Key])
			}
			w.respBytes.Add(int64(size))
			w.respRows.Add(int64(n))
			return "local", err
		}
	}
}

func (w *httpOpenLoop) totals() map[string]float64 {
	st, _ := w.nw.PeerReadStats("N0")
	frames, bytes := wireTotals(w.nw, w.in.Nodes)
	return map[string]float64{
		"cache_hits": float64(st.Hits), "cache_misses": float64(st.Misses),
		"wire_bytes": bytes, "wire_frames": frames,
		"resp_bytes": float64(w.respBytes.Load()), "resp_rows": float64(w.respRows.Load()),
	}
}

// drive climbs the ladder: the window is split evenly between the rungs.
func (w *httpOpenLoop) drive(ctx context.Context, deadline time.Time, rec *recorder) {
	per := time.Until(deadline) / time.Duration(len(httpLadder))
	w.okRate, w.rungs = 0, map[string]metric{}
	holding := true // every rung so far held
	for r, rate := range httpLadder {
		if r > 0 {
			// A fresh incarnation per rung: distributed queries leave
			// memory behind, and a rung must not inherit the heap (or the
			// backlog) of the one below.
			w.teardown()
			t := time.Now()
			if err := w.setup(); err != nil {
				rec.check("setup", err)
				return
			}
			rec.setups = append(rec.setups, time.Since(t).Seconds())
			warm := rec.fork()
			warm.tr = nil
			openLoop(ctx, warm, "", httpLadder[0], rewarm, httpWorkers, w.issue(w.issued))
			rec.absorb(warm)
		}
		at := rungName(r)
		failedBefore := rec.failed
		sampled := bracket(rec, w.totals)
		backlog, elapsed := openLoop(ctx, rec, at, rate, per, httpWorkers, w.issue(w.issued))
		sampled()
		w.issued += int(rate * per.Seconds())
		local := sortedCopy(rec.lat["local"+at])
		done := len(local) + len(rec.lat["dist"+at]) + len(rec.lat["insert"+at])
		p99 := percentile(local, 99)
		w.rungs["local_p50_ms"+at] = metric{Value: percentile(local, 50), Unit: "ms", N: len(local)}
		w.rungs["local_p99_ms"+at] = metric{Value: p99, Unit: "ms", N: len(local)}
		w.rungs["backlog"+at] = metric{Value: float64(backlog), Unit: "count"}
		// A rung holds when its local-query p99 meets the limit, nothing
		// failed and no backlog is left beyond what is in flight.
		holding = holding && p99 <= httpLimitMs && rec.failed == failedBefore && backlog <= httpWorkers && len(local) > 0
		if holding {
			w.okRate = rate
		}
		if r == len(httpLadder)-1 {
			w.satRPS = float64(done) / elapsed.Seconds()
		}
	}
	rec.lat["query"] = rec.lat["local@R2"] // the headline: local queries at R2
}

func (w *httpOpenLoop) finish(_ context.Context, rec *recorder) {
	var err error
	want := len(w.fix["N0"][relName]) + int(w.inserted.Load())
	if got := w.nw.Peer("N0").Count(relName); got != want {
		err = fmt.Errorf("head holds %d tuples, want %d (materialised + acknowledged inserts)", got, want)
	}
	rec.check("head count", err)
}

func (w *httpOpenLoop) endToEnd(rec *recorder, _ time.Duration) map[string]metric {
	out := map[string]metric{
		"query_p50_ms":    rec.p50("query"),
		"dist_p50_ms":     rec.p50("dist@R2"),
		"insert_p50_ms":   rec.p50("insert@R2"),
		"max_rate_ok_rps": {Value: w.okRate, Unit: "1/s"},
		"sat_rps":         {Value: w.satRPS, Unit: "1/s", N: len(rec.lat["local@R4"])},
	}
	rec.tail(out, "query", "query")
	var late []float64
	for r := 0; r < len(httpLadder)-1; r++ { // the top rung is overload by design
		late = append(late, rec.lat["gen_late"+rungName(r)]...)
	}
	out["gen_late_p99_ms"] = metric{Value: percentile(sortedCopy(late), 99), Unit: "ms", N: len(late)}
	for k, v := range w.rungs {
		out[k] = v
	}
	return out
}

func (w *httpOpenLoop) layers(rec *recorder) (*layerReport, error) {
	// The modelled op is the local query: the templates evaluated over the
	// materialised head. Links are not modelled: only a tenth of the mix
	// crosses them.
	m := &opModel{class: "query", origin: w.fix["N0"]}
	for i := 0; i < 64; i++ {
		e := w.in.Sched[i]
		if e.Kind != 'l' {
			continue
		}
		q, err := cq.ParseQuery(fmt.Sprintf("ans(v) :- data(%d, v)", w.in.Keys[e.Key]))
		if err != nil {
			return nil, err
		}
		m.queries = append(m.queries, q)
	}
	p := &prober{tr: rec.tr, workload: w.in.Workload}
	rep, err := p.run(m)
	if err != nil {
		return nil, err
	}
	requests := 0
	for r := range httpLadder {
		for _, class := range []string{"local", "dist", "insert"} {
			requests += len(rec.lat[class+rungName(r)])
		}
	}
	commonLayers(rep, rec, float64(requests))
	// The same local queries through the library, no HTTP.
	var direct []float64
	for i := 0; len(direct) < 2000; i++ {
		e := w.in.Sched[i%len(w.in.Sched)]
		if e.Kind != 'l' {
			continue
		}
		text := fmt.Sprintf("ans(v) :- data(%d, v)", w.in.Keys[e.Key])
		t := time.Now()
		if _, err := w.nw.LocalQuery("N0", text, codb.AllAnswers); err != nil {
			return nil, err
		}
		direct = append(direct, float64(time.Since(t).Nanoseconds())/1e6)
	}
	rep.vals["http.overhead_ms"] = median(rec.lat["local@R1"]) - median(direct)
	if rows := rec.counts["resp_rows"]; rows > 0 {
		rep.vals["http.resp_bytes_per_row"] = rec.counts["resp_bytes"] / rows
	}
	rep.vals["http.max_rate_ok_rps"] = w.okRate
	return rep, nil
}
