package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"codb"
	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

func newWorkload(in *inputs) (workload, error) {
	b, err := newBase(in)
	if err != nil {
		return nil, err
	}
	switch in.Workload {
	case wUpdateCold:
		return &updateCold{base: b}, nil
	case wUpdateIncr:
		return &updateIncr{base: b}, nil
	case wQueryFetch:
		return newQueryFetch(b)
	case wReadWrite:
		return newReadWrite(b)
	case wHTTP:
		return newHTTPOpenLoop(b)
	}
	return nil, fmt.Errorf("unknown workload %q", in.Workload)
}

// base holds what every workload derives from its inputs: the parsed rules,
// the start instances and the oracle's fixpoint of them.
type base struct {
	in    *inputs
	nw    *codb.Network
	rules []*cq.Rule
	start map[string]relation.Instance
	fix   map[string]relation.Instance
	// liveMsgs is the SessionData message count per rule the last traced op
	// reported; the codec probes batch their tuples the same way.
	liveMsgs map[string]int
	tmp      string // directory for durable peers and probes
}

func newBase(in *inputs) (*base, error) {
	b := &base{in: in, start: map[string]relation.Instance{}, liveMsgs: map[string]int{}}
	for _, r := range in.Rules {
		rule, err := cq.ParseRule(r.ID, r.Text)
		if err != nil {
			return nil, err
		}
		b.rules = append(b.rules, rule)
	}
	for _, n := range in.Nodes {
		inst := relation.NewInstance()
		for _, t := range in.Data[n] {
			inst.Insert(relName, t)
		}
		b.start[n] = inst
	}
	var err error
	if b.fix, _, err = chase.Fixpoint(b.rules, b.start, chase.Options{}); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *base) segments() int { return 1 }

func (b *base) teardown() {
	if b.nw != nil {
		b.nw.Close()
		b.nw = nil
	}
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
		b.tmp = ""
	}
}

// tmpDir makes the workload's scratch directory (inside $TMPDIR, which the
// run script points into the checkout).
func (b *base) tmpDir() (string, error) {
	if b.tmp == "" {
		dir, err := os.MkdirTemp("", "codb-bench-")
		if err != nil {
			return "", err
		}
		b.tmp = dir
	}
	return b.tmp, nil
}

// sameRelation checks a node's data relation against an oracle instance.
func sameRelation(nw *codb.Network, node string, want relation.Instance) error {
	got := nw.Peer(node).Tuples(relName)
	if len(got) != len(want[relName]) {
		return fmt.Errorf("%s holds %d tuples, oracle %d", node, len(got), len(want[relName]))
	}
	for _, t := range got {
		if !want.Has(relName, t) {
			return fmt.Errorf("%s holds %v, which the oracle does not derive", node, t)
		}
	}
	return nil
}

// sameAnswer checks an answer set against the oracle's.
func sameAnswer(got, want []codb.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(want))
	for _, t := range want {
		seen[t.Key()] = true
	}
	for _, t := range got {
		if !seen[t.Key()] {
			return fmt.Errorf("answer %v is not in the oracle's set", t)
		}
	}
	return nil
}

// sessionCounters sums, network-wide, what every node's statistical module
// recorded for one session. It waits (briefly) for the completion flood to
// reach every participant. Traced pass only: Reports enters each actor loop.
func (b *base) sessionCounters(sid string) map[string]float64 {
	out := map[string]float64{}
	pending := map[string]bool{}
	for _, n := range b.in.Nodes {
		pending[n] = true
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) {
		for n := range pending {
			for _, rep := range b.nw.Peer(n).Reports() {
				if rep.SID != sid {
					continue
				}
				delete(pending, n)
				out["msgs"] += float64(rep.SentMsgs)
				out["new_tuples"] += float64(rep.NewTuples)
				out["exports_full"] += float64(rep.ExportsFull)
				out["exports_incremental"] += float64(rep.ExportsIncremental)
				out["skipped_by_watermark"] += float64(rep.SkippedByWatermark)
				out["suppressed_bindings"] += float64(rep.SuppressedBindings)
				for _, c := range rep.TuplesPerRule {
					out["tuples"] += float64(c)
				}
				for rule, c := range rep.MsgsPerRule {
					b.liveMsgs[rule] = c
				}
			}
		}
		if len(pending) > 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	out["sessions"] = 1
	return out
}

// lastSID is the session id of the newest report at a node; queries do not
// return theirs.
func (b *base) lastSID(node string, kind msg.Kind) string {
	reps := b.nw.Peer(node).Reports()
	for i := len(reps) - 1; i >= 0; i-- {
		if reps[i].Kind == kind {
			return reps[i].SID
		}
	}
	return ""
}

// traceSession samples a finished session's counters when the window is
// traced and folds them into the recorder.
func (b *base) traceSession(rec *recorder, sid string) map[string]float64 {
	if rec.tr == nil || sid == "" {
		return nil
	}
	c := b.sessionCounters(sid)
	for k, v := range c {
		rec.counts["live_"+k] += v
	}
	return c
}

// storageTotals sums the durable-engine counters over every node.
func (b *base) storageTotals() map[string]float64 {
	out := map[string]float64{}
	for _, n := range b.in.Nodes {
		st, ok := b.nw.PeerStorageStats(n)
		if !ok {
			continue
		}
		out["wal_bytes"] += float64(st.WAL.Bytes)
		out["wal_pruned"] += float64(st.WAL.Pruned)
		out["gc_commits"] += float64(st.GroupCommit.Commits)
		out["gc_syncs"] += float64(st.GroupCommit.Syncs)
		out["spill_hits"] += float64(st.SpillHits)
		out["spill_misses"] += float64(st.SpillMisses)
	}
	return out
}

// bracket samples cumulative counters around a window and adds the deltas
// to the recorder.
func bracket(rec *recorder, sample func() map[string]float64) func() {
	before := sample()
	return func() {
		for k, v := range sample() {
			rec.counts[k] += v - before[k]
		}
	}
}

// wireDelta samples the network-wide socket counters now and, when the
// returned function runs, adds what was written since to the recorder.
func (b *base) wireDelta(rec *recorder) func() {
	frames0, bytes0 := wireTotals(b.nw, b.in.Nodes)
	return func() {
		frames1, bytes1 := wireTotals(b.nw, b.in.Nodes)
		rec.counts["wire_bytes"] += bytes1 - bytes0
		rec.counts["wire_frames"] += frames1 - frames0
	}
}

// oracleAnswers parses the templated queries and fills in the answers the
// oracle's instance of the head gives for them.
func (b *base) oracleAnswers() ([]*cq.Query, error) {
	var out []*cq.Query
	for i := range b.in.Hot {
		q, err := cq.ParseQuery(b.in.Hot[i].Text)
		if err != nil {
			return nil, err
		}
		if b.in.Hot[i].Want, err = cq.Eval(q, b.fix["N0"], cq.EvalOptions{}); err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// chainPath is the single origin-to-tail path of a chain's links, tail first.
func chainPath(n int) [][]int {
	var p []int
	for i := n - 2; i >= 0; i-- {
		p = append(p, i)
	}
	return [][]int{p}
}

// commonLayers fills the counter-backed per-layer metrics every workload
// shares from the traced window's recorder.
func commonLayers(rep *layerReport, rec *recorder, ops float64) {
	v, c := rep.vals, rec.counts
	if ops > 0 {
		v["transport.wire_bytes_per_op"] = c["wire_bytes"] / ops
	}
	if s := c["live_sessions"]; s > 0 {
		v["session.msgs_per_op"] = c["live_msgs"] / s
		v["session.exports_full_per_op"] = c["live_exports_full"] / s
		v["session.exports_incremental_per_op"] = c["live_exports_incremental"] / s
		v["session.skipped_by_watermark_per_op"] = c["live_skipped_by_watermark"] / s
		v["session.suppressed_bindings_per_op"] = c["live_suppressed_bindings"] / s
		if c["live_tuples"] > 0 {
			v["session.probe_tuples_vs_report"] = float64(rep.tuples) * s / c["live_tuples"]
		}
	}
	if c["live_msgs"] > 0 {
		v["transport.frames_per_payload"] = c["wire_frames"] / c["live_msgs"]
	}
	if c["gc_commits"] > 0 {
		v["wal.fsyncs_per_commit"] = c["gc_syncs"] / c["gc_commits"]
	}
	if c["user_bytes"] > 0 {
		v["wal.bytes_per_user_byte"] = c["wal_bytes"] / c["user_bytes"]
	}
	v["wal.segments_pruned"] = c["wal_pruned"]
	v["storage.spill_hits"] = c["spill_hits"]
	v["storage.spill_misses"] = c["spill_misses"]
	if look := c["cache_hits"] + c["cache_misses"]; look > 0 {
		v["core.cache_hit_ratio"] = c["cache_hits"] / look
	}
}

// newTuplesVsReport compares the new tuples the model expects per op with
// what the live sessions reported materialising.
func newTuplesVsReport(rep *layerReport, rec *recorder, model float64) {
	if s, live := rec.counts["live_sessions"], rec.counts["live_new_tuples"]; s > 0 && live > 0 {
		rep.vals["session.probe_new_tuples_vs_report"] = model * s / live
	}
}

// crossCheck fails the run when the probes' work differs from what the live
// sessions reported by more than 1%: a probe must not silently measure
// different work.
func crossCheck(rec *recorder, rep *layerReport) {
	for _, name := range []string{"session.probe_tuples_vs_report", "session.probe_new_tuples_vs_report"} {
		ratio, ok := rep.vals[name]
		if !ok {
			continue
		}
		var err error
		if ratio < 0.99 || ratio > 1.01 {
			err = fmt.Errorf("probe work ÷ live Report work = %.4f, want within 1%% of 1", ratio)
		}
		rec.check(name, err)
	}
}

// ---------------------------------------------------------------- update-cold

// updateCold: every op builds a fresh 8-node tree over loopback TCP
// (untimed) and times one global update from the root.
type updateCold struct {
	*base
	checked bool // the first op's result was compared tuple by tuple
}

func (w *updateCold) setup() (err error) {
	if w.nw, err = buildNetwork(w.in, tcpOptions, nil); err != nil {
		return err
	}
	return seedData(w.nw, w.in)
}

// verify compares every node to the oracle: counts always, every tuple when
// full is set.
func (w *updateCold) verify(full bool) error {
	for _, n := range w.in.Nodes {
		if full {
			if err := sameRelation(w.nw, n, w.fix[n]); err != nil {
				return err
			}
		} else if got, want := w.nw.Peer(n).Count(relName), len(w.fix[n][relName]); got != want {
			return fmt.Errorf("%s holds %d tuples, oracle %d", n, got, want)
		}
	}
	return nil
}

func (w *updateCold) newTuples() float64 {
	var n int
	for _, node := range w.in.Nodes {
		n += len(w.fix[node][relName]) - len(w.start[node][relName])
	}
	return float64(n)
}

func (w *updateCold) once(ctx context.Context, rec *recorder, full bool) {
	if w.nw == nil {
		t := time.Now()
		if err := w.setup(); err != nil {
			rec.check("build", err)
			w.teardown()
			return
		}
		rec.setups = append(rec.setups, time.Since(t).Seconds())
	}
	wired := w.wireDelta(rec)
	t0 := time.Now()
	rep, err := w.nw.Update(ctx, "N0")
	t1 := time.Now()
	wired()
	if err == nil {
		err = w.verify(full)
	}
	if err == nil {
		rec.counts["new_tuples"] += w.newTuples()
	}
	rec.op("update", t0, t1, err, w.traceSession(rec, rep.SID))
	w.teardown()
}

func (w *updateCold) drive(ctx context.Context, deadline time.Time, rec *recorder) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		w.once(ctx, rec, !w.checked)
		w.checked = true
	}
}

// finish is the last iteration: one more op, compared tuple by tuple.
func (w *updateCold) finish(ctx context.Context, rec *recorder) {
	probe := rec.fork()
	probe.tr = nil
	w.once(ctx, probe, true)
	rec.absorb(probe)
}

func (w *updateCold) endToEnd(rec *recorder, _ time.Duration) map[string]metric {
	out := map[string]metric{"update_p50_ms": rec.p50("update")}
	rec.tail(out, "update", "update")
	n := len(rec.lat["update"])
	if wall := sum(rec.lat["update"]) / 1e3; wall > 0 {
		out["update_tuples_per_s"] = metric{Value: rec.counts["new_tuples"] / wall, Unit: "1/s", N: n}
	}
	if n > 0 {
		out["wire_bytes_per_op"] = metric{Value: rec.counts["wire_bytes"] / float64(n), Unit: "B", N: n}
	}
	return out
}

func (w *updateCold) layers(rec *recorder) (*layerReport, error) {
	m := &opModel{class: "update", wire: true}
	for _, r := range w.rules {
		m.links = append(m.links, link{rule: r, src: w.fix[r.Source], tgt: w.start[r.Target], msgs: w.liveMsgs[r.ID]})
	}
	// Link i-1 leaves node i toward its parent (i-1)/2; a path climbs from a
	// leaf of the tree to the root.
	for leaf := coldNodes / 2; leaf < coldNodes; leaf++ {
		var path []int
		for n := leaf; n > 0; n = (n - 1) / 2 {
			path = append(path, n-1)
		}
		m.paths = append(m.paths, path)
	}
	p := &prober{tr: rec.tr, workload: w.in.Workload}
	rep, err := p.run(m)
	if err != nil {
		return nil, err
	}
	commonLayers(rep, rec, float64(len(rec.lat["update"])))
	newTuplesVsReport(rep, rec, w.newTuples())
	crossCheck(rec, rep)
	return rep, nil
}

// ------------------------------------------------------- update-incr-durable

// updateIncr: one long-lived durable 6-node chain; each op pair inserts a
// 64-row burst at the tail and runs a global update from the head.
type updateIncr struct {
	*base
	next  int // next burst index
	acked int // bursts whose insert and update both returned
}

var durableOptions = codb.NetworkOptions{
	Transport: codb.TransportGroup{TCP: true},
	Storage:   codb.StorageGroup{SyncOnCommit: true},
}

func (w *updateIncr) open() (err error) {
	root, err := w.tmpDir()
	if err != nil {
		return err
	}
	w.nw, err = buildNetwork(w.in, durableOptions, func(node string) string { return filepath.Join(root, node) })
	return err
}

func (w *updateIncr) setup() error {
	w.next, w.acked = 0, 0
	if err := w.open(); err != nil {
		return err
	}
	if err := seedData(w.nw, w.in); err != nil {
		return err
	}
	_, err := w.nw.Update(context.Background(), "N0")
	return err
}

// Five incarnations per window: an update gets slower as the network ages
// (see README, baseline observations), so one long incarnation would make
// the median depend on how far into it the window reached.
func (w *updateIncr) segments() int { return 5 }

func (w *updateIncr) tail() string { return nodeName(incrNodes - 1) }

func (w *updateIncr) headWant() int { return len(w.fix["N0"][relName]) + w.acked*incrBurst }

func (w *updateIncr) drive(ctx context.Context, deadline time.Time, rec *recorder) {
	defer bracket(rec, w.storageTotals)()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		rows := w.in.burst(w.next, incrBurst)
		w.next++
		wired := w.wireDelta(rec)
		t0 := time.Now()
		err := w.nw.Insert(w.tail(), relName, rows...)
		t1 := time.Now()
		rec.op("insert", t0, t1, err, nil)
		if err != nil {
			continue
		}
		t2 := time.Now()
		rep, err := w.nw.Update(ctx, "N0")
		t3 := time.Now()
		wired()
		if err == nil {
			w.acked++
			if got := w.nw.Peer("N0").Count(relName); got != w.headWant() {
				err = fmt.Errorf("head holds %d tuples after %d bursts, want %d", got, w.acked, w.headWant())
			}
		}
		rec.counts["user_bytes"] += float64(incrNodes * incrBurst * rows[0].EncodedLen())
		rec.op("update", t2, t3, err, w.traceSession(rec, rep.SID))
	}
}

// finish closes the network, reopens every peer from its directory and
// checks that every acknowledged burst survived.
func (w *updateIncr) finish(_ context.Context, rec *recorder) {
	w.nw.Close()
	w.nw = nil
	if err := w.open(); err != nil {
		rec.check("reopen", err)
		return
	}
	have := map[string]bool{}
	for _, t := range w.nw.Peer(w.tail()).Tuples(relName) {
		have[t.Key()] = true
	}
	var err error
	for i := 0; i < w.next && err == nil; i++ {
		for _, t := range w.in.burst(i, incrBurst) {
			// Only bursts whose insert was acknowledged count; inserts
			// here never fail, so every issued burst was.
			if !have[t.Key()] {
				err = fmt.Errorf("burst %d row %v lost across restart", i, t)
				break
			}
		}
	}
	rec.check("durable bursts readable after reopen", err)
	err = nil
	if got := w.nw.Peer("N0").Count(relName); got != w.headWant() {
		err = fmt.Errorf("head recovered %d tuples, want %d", got, w.headWant())
	}
	rec.check("head count after reopen", err)
}

func (w *updateIncr) endToEnd(rec *recorder, _ time.Duration) map[string]metric {
	out := map[string]metric{"insert_p50_ms": rec.p50("insert"), "update_p50_ms": rec.p50("update")}
	rec.tail(out, "insert", "insert")
	rec.tail(out, "update", "update")
	n := len(rec.lat["update"])
	if wall := (sum(rec.lat["insert"]) + sum(rec.lat["update"])) / 1e3; wall > 0 {
		out["burst_rows_per_s"] = metric{Value: float64(n*incrBurst) / wall, Unit: "1/s", N: n}
	}
	if n > 0 {
		out["wire_bytes_per_op"] = metric{Value: rec.counts["wire_bytes"] / float64(n), Unit: "B", N: n}
	}
	return out
}

func (w *updateIncr) layers(rec *recorder) (*layerReport, error) {
	tmp, err := w.tmpDir()
	if err != nil {
		return nil, err
	}
	m := &opModel{class: "update", wire: true, durable: true, paths: chainPath(incrNodes)}
	burst := w.in.burst(0, incrBurst)
	for _, r := range w.rules {
		// The exporter holds its fixpoint plus the burst; only the burst
		// is new since the link's watermark.
		src := w.fix[r.Source].Clone()
		for _, t := range burst {
			src.Insert(relName, t)
		}
		m.links = append(m.links, link{rule: r, src: src, delta: burst, tgt: w.fix[r.Target], msgs: w.liveMsgs[r.ID]})
	}
	p := &prober{tr: rec.tr, workload: w.in.Workload, tmp: tmp}
	rep, err := p.run(m)
	if err != nil {
		return nil, err
	}
	commonLayers(rep, rec, float64(len(rec.lat["update"])))
	newTuplesVsReport(rep, rec, float64(rep.facts))
	crossCheck(rec, rep)
	return rep, nil
}

// ---------------------------------------------------------------- query-fetch

// queryFetch: an 8-node chain that is never materialised; every op is one
// distributed query at the head whose answer needs a row from every node.
type queryFetch struct {
	*base
	next    int
	queries []*cq.Query
}

func newQueryFetch(b *base) (*queryFetch, error) {
	queries, err := b.oracleAnswers()
	return &queryFetch{base: b, queries: queries}, err
}

func (w *queryFetch) setup() (err error) {
	if w.nw, err = buildNetwork(w.in, tcpOptions, nil); err != nil {
		return err
	}
	return seedData(w.nw, w.in)
}

// Five incarnations per window: every query session leaves memory behind, so
// one long incarnation ends with a 1 GB heap whose collection decides the run.
func (w *queryFetch) segments() int { return 5 }

func (w *queryFetch) drive(ctx context.Context, deadline time.Time, rec *recorder) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		q := &w.in.Hot[w.next%len(w.in.Hot)]
		w.next++
		wired := w.wireDelta(rec)
		t0 := time.Now()
		rows, err := w.nw.Query(ctx, "N0", q.Text, codb.AllAnswers)
		t1 := time.Now()
		wired()
		if err == nil {
			err = sameAnswer(rows, q.Want)
		}
		var counters map[string]float64
		if rec.tr != nil {
			counters = w.traceSession(rec, w.lastSID("N0", msg.KindQuery))
		}
		rec.op("query", t0, t1, err, counters)
	}
}

// finish checks that fetching never materialised anything at the head.
func (w *queryFetch) finish(_ context.Context, rec *recorder) {
	var err error
	if got, want := w.nw.Peer("N0").Count(relName), len(w.start["N0"][relName]); got != want {
		err = fmt.Errorf("head holds %d tuples after query-time fetches, want its own %d", got, want)
	}
	rec.check("head not materialised", err)
}

func (w *queryFetch) endToEnd(rec *recorder, window time.Duration) map[string]metric {
	out := map[string]metric{"query_p50_ms": rec.p50("query")}
	rec.tail(out, "query", "query")
	n := len(rec.lat["query"])
	out["query_per_s"] = metric{Value: float64(n) / window.Seconds(), Unit: "1/s", N: n}
	if n > 0 {
		out["wire_bytes_per_op"] = metric{Value: rec.counts["wire_bytes"] / float64(n), Unit: "B", N: n}
	}
	return out
}

func (w *queryFetch) layers(rec *recorder) (*layerReport, error) {
	m := &opModel{class: "query", wire: true, paths: chainPath(fetchNodes), queries: w.queries, origin: w.fix["N0"]}
	for _, r := range w.rules {
		m.links = append(m.links, link{rule: r, src: w.fix[r.Source], msgs: w.liveMsgs[r.ID]})
	}
	p := &prober{tr: rec.tr, workload: w.in.Workload}
	rep, err := p.run(m)
	if err != nil {
		return nil, err
	}
	commonLayers(rep, rec, float64(len(rec.lat["query"])))
	crossCheck(rec, rep)
	return rep, nil
}

// -------------------------------------------------------------- read-write-mix

// readWrite: a 4-node star on the in-process bus with the hub materialised;
// a closed-loop reader queries the hub while a paced writer inserts at the
// leaves and runs scoped updates.
type readWrite struct {
	*base
	hot      []*cq.Query
	valueOf  map[int64]int64 // key -> value at the hub, for the cold lookups
	nextHot  int
	nextCold int
	rounds   int // write rounds completed
	issued   int // bursts issued (a failed round still inserted)
}

const mixWritePeriod = 100 * time.Millisecond // 10 write rounds per second

// reevalMs separates the reads that had to be evaluated again from scratch
// after a write round emptied the query cache and dropped the snapshot's
// views (a self-join, a range scan, a view rebuild: 3 to 8 ms at the
// baseline) from cache hits (2 µs) and indexed lookups (~10 µs, a few
// hundred µs when the collector or the writer interrupts them).
const reevalMs = 1.0

func newReadWrite(b *base) (*readWrite, error) {
	hot, err := b.oracleAnswers()
	if err != nil {
		return nil, err
	}
	w := &readWrite{base: b, hot: hot, valueOf: map[int64]int64{}}
	for _, t := range b.fix["N0"][relName] {
		w.valueOf[t[0].Int] = t[1].Int
	}
	return w, nil
}

func (w *readWrite) setup() (err error) {
	w.rounds, w.issued = 0, 0
	if w.nw, err = buildNetwork(w.in, codb.NetworkOptions{}, nil); err != nil {
		return err
	}
	if err := seedData(w.nw, w.in); err != nil {
		return err
	}
	_, err = w.nw.Update(context.Background(), "N0")
	return err
}

func (w *readWrite) hubWant() int { return len(w.fix["N0"][relName]) + w.rounds*mixBurst }

func (w *readWrite) read(rec *recorder, i int) {
	var text, class string
	var want []codb.Tuple
	if i%5 == 4 { // 20%: a lookup never asked before
		key := w.in.Cold[w.nextCold%len(w.in.Cold)]
		w.nextCold++
		text, class = fmt.Sprintf("ans(v) :- data(%d, v)", key), "query_cold"
		want = []codb.Tuple{codb.Row(codb.Int(int(w.valueOf[int64(key)])))}
	} else {
		q := &w.in.Hot[w.nextHot%len(w.in.Hot)]
		w.nextHot++
		text, class, want = q.Text, "query_hot", q.Want
	}
	t0 := time.Now()
	rows, err := w.nw.LocalQuery("N0", text, codb.AllAnswers)
	t1 := time.Now()
	if err == nil {
		err = sameAnswer(rows, want)
	}
	rec.op("query", t0, t1, err, nil)
	if err == nil {
		ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
		rec.lat[class] = append(rec.lat[class], ms)
		if ms >= reevalMs {
			rec.lat["query_reeval"] = append(rec.lat["query_reeval"], ms)
		}
	}
}

func (w *readWrite) write(ctx context.Context, rec *recorder) {
	leaf := nodeName(1 + w.issued%mixLeaves)
	rows := w.in.burst(w.issued, mixBurst)
	w.issued++
	t0 := time.Now()
	err := w.nw.Insert(leaf, relName, rows...)
	var rep codb.Report
	if err == nil {
		rep, err = w.nw.ScopedUpdate(ctx, "N0", relName)
	}
	t1 := time.Now()
	if err == nil {
		w.rounds++
		if got := w.nw.Peer("N0").Count(relName); got != w.hubWant() {
			err = fmt.Errorf("hub holds %d tuples after %d write rounds, want %d", got, w.rounds, w.hubWant())
		}
	}
	rec.op("update", t0, t1, err, w.traceSession(rec, rep.SID))
}

func (w *readWrite) cacheTotals() map[string]float64 {
	st, _ := w.nw.PeerReadStats("N0")
	_, bytes := wireTotals(w.nw, w.in.Nodes)
	out := w.storageTotals()
	out["cache_hits"], out["cache_misses"], out["wire_bytes"] = float64(st.Hits), float64(st.Misses), bytes
	return out
}

func (w *readWrite) drive(ctx context.Context, deadline time.Time, rec *recorder) {
	defer bracket(rec, w.cacheTotals)()
	reader, writer := rec.fork(), rec.fork()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client A: closed loop
		defer wg.Done()
		for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
			w.read(reader, i)
		}
	}()
	go func() { // client B: paced
		defer wg.Done()
		tick := time.NewTicker(mixWritePeriod)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if !now.Before(deadline) {
					return
				}
				w.write(ctx, writer)
			}
		}
	}()
	wg.Wait()
	rec.merge(reader)
	rec.merge(writer)
}

// finish runs a quiescent global update and compares the hub to the oracle
// of the final inputs.
func (w *readWrite) finish(ctx context.Context, rec *recorder) {
	_, err := w.nw.Update(ctx, "N0")
	rec.check("quiescent update", err)
	final := map[string]relation.Instance{}
	for n, inst := range w.start {
		final[n] = inst.Clone()
	}
	for i := 0; i < w.issued; i++ {
		for _, t := range w.in.burst(i, mixBurst) {
			final[nodeName(1+i%mixLeaves)].Insert(relName, t)
		}
	}
	fix, _, err := chase.Fixpoint(w.rules, final, chase.Options{})
	if err == nil {
		err = sameRelation(w.nw, "N0", fix["N0"])
	}
	rec.check("hub equals oracle", err)
}

func (w *readWrite) endToEnd(rec *recorder, window time.Duration) map[string]metric {
	out := map[string]metric{
		"query_p50_ms":      rec.p50("query"),
		"query_hot_p50_ms":  rec.p50("query_hot"),
		"query_cold_p50_ms": rec.p50("query_cold"),
		// Reads re-evaluated after a write round: what a write costs a reader.
		"query_reeval_p50_ms": rec.p50("query_reeval"),
		"update_p50_ms":       rec.p50("update"),
	}
	rec.tail(out, "query", "query")
	rec.tail(out, "update", "update")
	n := len(rec.lat["query"])
	out["query_per_s"] = metric{Value: float64(n) / window.Seconds(), Unit: "1/s", N: n}
	out["wire_bytes_per_op"] = metric{Value: rec.counts["wire_bytes"] / float64(max(n, 1)), Unit: "B", N: n}
	return out
}

func (w *readWrite) layers(rec *recorder) (*layerReport, error) {
	// The modelled op is the write round: a 32-row delta over one bus link,
	// committed into the ~20k-row hub, whose snapshot views the readers
	// then rebuild. The origin queries are the reader's mix.
	m := &opModel{class: "update", origin: w.fix["N0"], queries: w.hot}
	burst := w.in.burst(0, mixBurst)
	src := w.start["N1"].Clone()
	for _, t := range burst {
		src.Insert(relName, t)
	}
	m.links = []link{{rule: w.rules[0], src: src, delta: burst, tgt: w.fix["N0"], msgs: 1}}
	for i := 0; i < 8; i++ { // the 20% cold share of 40 queries
		q, err := cq.ParseQuery(fmt.Sprintf("ans(v) :- data(%d, v)", w.in.Cold[i]))
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
	rep.pathMs = map[string]float64{
		"cq": rep.vals["cq.eval_ms_per_op"], "chase": rep.vals["chase.facts_ms_per_op"],
		"storage": rep.vals["storage.commit_ms_per_op"],
	}
	commonLayers(rep, rec, float64(len(rec.lat["query"])))
	// A read that took at least half a view rebuild paid for one.
	if rounds, limit := len(rec.lat["update"]), rep.vals["storage.view_rebuild_ms"]/2; rounds > 0 && limit > 0 {
		slow := 0
		for _, ms := range rec.lat["query"] {
			if ms >= limit {
				slow++
			}
		}
		rep.vals["storage.view_rebuilds_per_write"] = float64(slow) / float64(rounds)
	}
	newTuplesVsReport(rep, rec, float64(rep.facts))
	crossCheck(rec, rep)
	return rep, nil
}
