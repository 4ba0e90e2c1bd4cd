package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestInputDigestDependsOnlyOnSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave digests %s and %s", name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a.digest())
		}
		// Cardinalities must not depend on the seed: that is what makes
		// runs on different seeds comparable.
		for _, n := range a.Nodes {
			if len(a.Data[n]) != len(c.Data[n]) {
				t.Errorf("%s: node %s holds %d rows on seed 7, %d on seed 8", name, n, len(a.Data[n]), len(c.Data[n]))
			}
		}
	}
}

func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {40, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
		{10000, 99.9, true}, {100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercent(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercent(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A server that stalls must inflate the latency of the requests that came
// due during the stall, and how late they left the generator: the open loop
// times from due time, so it cannot hide the stall behind a slower send
// rate (coordinated omission).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	do := func(_, _ int) (string, error) {
		if calls.Add(1) <= 2 { // both workers stall once, together
			time.Sleep(stall)
		}
		return "req", nil
	}
	rec := newRecorder("test")
	backlog, _ := openLoop(context.Background(), rec, "", 500, 600*time.Millisecond, 2, do)
	lat := sortedCopy(rec.lat["req"])
	late := sortedCopy(rec.lat["gen_late"])
	if len(lat)+backlog != 300 {
		t.Fatalf("%d completed + %d backlog, want 300 scheduled", len(lat), backlog)
	}
	// About 100 requests came due during the stall; a closed loop would have
	// sent none of them and reported two slow requests out of ~200.
	slow := 0
	for _, ms := range lat {
		if ms > 50 {
			slow++
		}
	}
	if slow < 50 {
		t.Errorf("only %d of %d requests saw the 200 ms stall; latency is not timed from due time", slow, len(lat))
	}
	if p99 := percentile(late, 99); p99 < 100 {
		t.Errorf("gen_late p99 = %.1f ms, want the stall to show (>= 100 ms)", p99)
	}
	if p50 := percentile(lat, 50); p50 > 150 {
		t.Errorf("p50 = %.1f ms: the generator never caught up after the stall", p50)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	rec := newRecorder("test")
	openLoop(context.Background(), rec, "@x", 200, 100*time.Millisecond, 2, func(_, i int) (string, error) {
		if i%2 == 0 {
			return "req", errors.New("refused")
		}
		return "req", nil
	})
	if rec.attempted != 20 || rec.failed != 10 || len(rec.lat["req@x"]) != 10 {
		t.Errorf("attempted %d failed %d samples %d, want 20 10 10", rec.attempted, rec.failed, len(rec.lat["req@x"]))
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := &gate{Name: "x_ms", Bound: 0.10}
	higher := &gate{Name: "x_per_s", Higher: true, Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100.5, 99.5}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 85, 115, 100}
	cases := []struct {
		name     string
		g        *gate
		old, cur []float64
		want     string
	}{
		{"lower is better, 20% slower", lower, tight, shift(tight, 1.2), vWorse},
		{"lower is better, 20% faster", lower, tight, shift(tight, 0.8), vBetter},
		{"within the bound", lower, tight, shift(tight, 1.05), vSame},
		{"higher is better, 20% less", higher, tight, shift(tight, 0.8), vWorse},
		{"higher is better, 20% more", higher, tight, shift(tight, 1.2), vBetter},
		{"spread wider than the bound hides a small change", lower, noisy, shift(noisy, 1.05), vUnresolved},
		{"a change far beyond a wide spread still counts", lower, noisy, shift(noisy, 2), vWorse},
		{"single runs compare medians only", lower, []float64{100}, []float64{125}, vWorse},
	}
	for _, c := range cases {
		if got, _, _, _, _ := verdict(c.g, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorseOrMoreFailures(t *testing.T) {
	doc := func(qps float64, failed int) *document {
		return &document{Workloads: map[string]*docWorkload{wQueryFetch: {
			Attempted: 1000, Failed: failed,
			Metrics: map[string]metric{"query_per_s": {Value: qps, Unit: "1/s"}},
		}}}
	}
	var out bytes.Buffer
	if compareDocs(doc(100, 0), doc(98, 0), &out) {
		t.Errorf("2%% fewer queries per second counted as worse:\n%s", out.String())
	}
	if !compareDocs(doc(100, 0), doc(80, 0), &out) {
		t.Error("20% fewer queries per second did not count as worse")
	}
	if !compareDocs(doc(100, 0), doc(100, 1), &out) {
		t.Error("a higher failed_ops_ratio did not count as worse")
	}
	if !strings.Contains(out.String(), vUnresolved) {
		t.Error("a gated metric missing from both documents should read unresolved")
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go are what the
// program prints. They must agree.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != whys[w.Name] {
			t.Errorf("workload %d: %q %q, program has %q %q", i, w.Name, w.Why, workloadNames[i], whys[workloadNames[i]])
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(spec.EndToEnd), len(driverEndToEnd))
	}
	for i, m := range spec.EndToEnd {
		g := gated(wUpdateCold, m.Name)
		if g == nil || m.Name != driverEndToEnd[i] || m.Unit != g.Unit || m.Bound != g.Bound || m.Better != better(g.Higher) {
			t.Errorf("end_to_end %d %+v does not match gate %+v", i, m, g)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.Name || m.Unit != lm.Unit || m.Better != better(lm.Higher) {
			t.Errorf("per_layer %d %+v does not match %+v", i, m, lm)
		}
	}
}

// The smoke: every workload end to end with -quick windows, every named
// metric present with a unit, every correctness gate passing; then one
// traced pass with every per-layer metric present.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	t.Setenv("TMPDIR", t.TempDir())
	ctx := context.Background()
	smoke := config{seed: 3, window: 400 * time.Millisecond, warmup: 50 * time.Millisecond, quick: true}
	for _, name := range workloadNames {
		res, err := runWorkload(ctx, name, smoke)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for i := range gates {
			g := &gates[i]
			if gated(name, g.Name) == nil {
				continue
			}
			m, ok := res.Metrics[g.Name]
			if !ok || m.Unit != g.Unit {
				t.Errorf("%s: metric %s missing or unit %q, want %q", name, g.Name, m.Unit, g.Unit)
			}
			if g.Name != "max_rate_ok_rps" && g.Name != "wire_bytes_per_op" && m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", name, g.Name, m.Value)
			}
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(res, false)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(driverEndToEnd) || line.Attempted != res.Attempted {
			t.Errorf("%s: driver line %+v", name, line)
		}
		if name == wReadWrite && res.Metrics["wire_bytes_per_op"].Value != 0 {
			t.Errorf("%s wrote %v bytes to sockets on the in-process bus", name, res.Metrics["wire_bytes_per_op"].Value)
		}
	}
	// The traced pass, on an in-memory workload: every per-layer metric is
	// there and the WAL counters read 0.
	smoke.traced, smoke.window = true, 900*time.Millisecond
	smoke.spanFile = filepath.Join(t.TempDir(), "spans.json")
	res, err := runWorkload(ctx, wQueryFetch, smoke)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced %s failed: %v", wQueryFetch, res.Errors)
	}
	for _, lm := range layerMetrics {
		if m, ok := res.Layers[lm.Name]; !ok || m.Unit != lm.Unit {
			t.Errorf("per-layer metric %s missing or unit %q", lm.Name, m.Unit)
		}
	}
	for _, name := range []string{"wal.fsyncs_per_commit", "wal.bytes_per_user_byte", "wal.commit_wait_ms", "storage.commit_ms_per_op"} {
		if v := res.Layers[name].Value; v != 0 {
			t.Errorf("%s = %v on a workload that never commits, want 0", name, v)
		}
	}
	if v := res.Layers["msg.bytes_per_tuple"].Value; v <= 0 {
		t.Errorf("msg.bytes_per_tuple = %v on a TCP workload", v)
	}
	var tf traceFile
	if err := readJSON(smoke.spanFile, &tf); err != nil || len(tf.Spans) == 0 {
		t.Errorf("span file: %v, %d spans", err, len(tf.Spans))
	}
}
