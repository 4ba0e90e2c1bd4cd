package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"codb"
)

// config is one workload run's settings.
type config struct {
	seed     int64
	window   time.Duration // measured window
	warmup   time.Duration
	quick    bool   // smoke only: one set-up
	traced   bool   // run the traced pass and the per-layer probes
	spanFile string // where the traced pass writes its spans ("" = nowhere)
}

// workload is one of the five session-level workloads. The harness calls
// setup (several times, timing it), then drive twice or three times (warm-up,
// measured window, traced window), then finish, then teardown.
type workload interface {
	// setup builds a fresh seeded system, materialised where the workload
	// says so. It is what setup_s times.
	setup() error
	// segments is the number of fresh set-ups a window is spread over: the
	// system is torn down and set up again between segments, so that state
	// one incarnation accumulates (heap, log size) and its accidents
	// (placement, file layout) do not decide the whole run.
	segments() int
	// teardown releases whatever the last setup built.
	teardown()
	// drive issues the workload's requests until the deadline, recording
	// every operation.
	drive(ctx context.Context, deadline time.Time, rec *recorder)
	// finish runs the end-of-run correctness gate.
	finish(ctx context.Context, rec *recorder)
	// endToEnd turns the measured window's samples into named metrics.
	endToEnd(rec *recorder, window time.Duration) map[string]metric
	// layers runs the per-layer probes and folds in the traced window's
	// counters.
	layers(rec *recorder) (*layerReport, error)
}

// recorder collects one window's samples. Each load-generating goroutine
// owns one (fork/merge), so recording takes no lock.
type recorder struct {
	lat       map[string][]float64 // op class -> latency, ms
	setups    []float64            // seconds
	counts    map[string]float64   // named counters accumulated over the window
	attempted int
	failed    int
	errs      []string
	tr        *tracer // non-nil only in the traced window
	workload  string
}

func newRecorder(workload string) *recorder {
	return &recorder{lat: map[string][]float64{}, counts: map[string]float64{}, workload: workload}
}

func (r *recorder) fork() *recorder {
	c := newRecorder(r.workload)
	c.tr = r.tr
	return c
}

func (r *recorder) merge(c *recorder) {
	for k, v := range c.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range c.counts {
		r.counts[k] += v
	}
	r.setups = append(r.setups, c.setups...)
	r.attempted += c.attempted
	r.failed += c.failed
	r.errs = append(r.errs, c.errs...)
}

// absorb takes over another recorder's attempts and failures but not its
// samples: what warm-up and re-warm phases contribute.
func (r *recorder) absorb(c *recorder) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.errs = append(r.errs, c.errs...)
}

// op records one benchmark-issued operation: a latency sample, an attempt,
// a failure when err is set, and — in the traced window — a root span
// carrying the counters sampled at the op's end. It returns the span id.
func (r *recorder) op(class string, start, end time.Time, err error, counters map[string]float64) int64 {
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", class, err))
	} else {
		r.lat[class] = append(r.lat[class], float64(end.Sub(start).Nanoseconds())/1e6)
	}
	if r.tr == nil {
		return 0
	}
	return r.tr.root(r.workload, class, start, end, err == nil, counters)
}

// check records a correctness check as an attempted operation.
func (r *recorder) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// p50 is a class's median latency with its sample count.
func (r *recorder) p50(class string) metric {
	return metric{Value: median(r.lat[class]), Unit: "ms", N: len(r.lat[class])}
}

// tail reports the highest percentile of a class that has ten samples
// beyond it, named <prefix>_tail_ms with <prefix>_tail_pct beside it.
func (r *recorder) tail(out map[string]metric, prefix, class string) {
	s := sortedCopy(r.lat[class])
	pct, ok := tailPercent(len(s))
	if !ok {
		return
	}
	out[prefix+"_tail_ms"] = metric{Value: percentile(s, pct), Unit: "ms", N: len(s)}
	out[prefix+"_tail_pct"] = metric{Value: pct, Unit: "%"}
}

// result is one workload run, as written to -out and merged by the parent.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	InputDigest string             `json:"input_digest"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Layers      map[string]metric  `json:"layers,omitempty"`
	BlockShare  map[string]float64 `json:"probe_share_of_op,omitempty"`
}

// runWorkload runs every phase of one workload in this process.
func runWorkload(ctx context.Context, name string, cfg config) (*result, error) {
	in, err := generate(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(in)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), InputDigest: in.digest()}

	// Set-up, several times: at least two and at most five, stopping once
	// four seconds are spent (-quick: once). The last one stays up for the run.
	var setups []float64
	most, began := 5, time.Now()
	if cfg.quick {
		most = 1
	}
	for len(setups) < most && (len(setups) < 2 || time.Since(began) < 4*time.Second) {
		if len(setups) > 0 {
			w.teardown()
		}
		t := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.teardown()

	// Warm-up: its samples are discarded, its correctness checks are not.
	warm := newRecorder(name)
	w.drive(ctx, time.Now().Add(cfg.warmup), warm)
	runtime.GC()

	window := cfg.window
	if cfg.traced {
		window /= 3 // untraced reference, traced pass and probes share the budget
	}
	rec := newRecorder(name)
	segments := w.segments()
	if cfg.quick {
		segments = 1
	}
	elapsed, err := measure(ctx, w, segments, window, rec, warm)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	rec.setups = append(rec.setups, setups...)
	res.Metrics = w.endToEnd(rec, elapsed)
	res.Metrics["setup_s"] = metric{Value: median(rec.setups), Unit: "s", N: len(rec.setups)}
	hl := headline[name]
	res.Metrics["op_p50_ms"] = res.Metrics[hl[0]]
	res.Metrics["work_per_s"] = res.Metrics[hl[1]]

	// checks sums attempts and failures over every phase, warm-up included.
	checks := newRecorder(name)
	if cfg.traced {
		traced := newRecorder(name)
		traced.tr = newTracer()
		if _, err := measure(ctx, w, segments, window, traced, warm); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		w.finish(ctx, traced)
		lr, err := w.layers(traced)
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", name, err)
		}
		vals := lr.vals
		if base := res.Metrics[hl[0]].Value; base > 0 {
			vals["trace_overhead_pct"] = 100 * (median(traced.lat[opClass(hl[0])]) - base) / base
		}
		// What the probes do not explain of the modelled op: actor loops,
		// queues, acks, scheduling.
		opMs := median(traced.lat[lr.class])
		vals["session.unattributed_ms"] = opMs - sum(mapValues(lr.pathMs))
		res.BlockShare = map[string]float64{}
		for layer, ms := range lr.pathMs {
			if opMs > 0 {
				res.BlockShare[layer] = ms / opMs
			}
		}
		res.Layers = map[string]metric{}
		for _, lm := range layerMetrics {
			res.Layers[lm.Name] = metric{Value: vals[lm.Name], Unit: lm.Unit}
		}
		if cfg.spanFile != "" {
			if err := traced.tr.write(cfg.spanFile); err != nil {
				return nil, err
			}
		}
		checks.absorb(traced)
	} else {
		w.finish(ctx, rec)
	}
	res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	if cfg.traced {
		res.Layers["peak_rss_mb"] = res.Metrics["peak_rss_mb"]
	}
	checks.absorb(warm)
	checks.absorb(rec)
	res.Attempted, res.Failed, res.Errors = checks.attempted, checks.failed, checks.errs
	res.Metrics["failed_ops_ratio"] = metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio", N: res.Attempted}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// measure drives one window, spread over k fresh incarnations, and
// returns the time spent driving (set-up and re-warming excluded). Set-ups
// between segments are timed into rec; re-warm samples go to warm.
func measure(ctx context.Context, w workload, k int, window time.Duration, rec, warm *recorder) (time.Duration, error) {
	var driven time.Duration
	for s := 0; s < k; s++ {
		if s > 0 {
			w.teardown()
			t := time.Now()
			if err := w.setup(); err != nil {
				return 0, err
			}
			rec.setups = append(rec.setups, time.Since(t).Seconds())
			w.drive(ctx, time.Now().Add(rewarm), warm)
		}
		t := time.Now()
		w.drive(ctx, t.Add(window/time.Duration(k)), rec)
		driven += time.Since(t)
	}
	return driven, nil
}

// rewarm is how long a fresh incarnation is driven before it is measured.
const rewarm = 300 * time.Millisecond

// opClass maps a normative latency metric to the recorder class behind it.
func opClass(metricName string) string { return strings.TrimSuffix(metricName, "_p50_ms") }

// peakRSSMB reads this process's VmHWM; 0 where /proc is absent.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// network helpers shared by the workloads.

func buildNetwork(in *inputs, opts codb.NetworkOptions, dirOf func(node string) string) (*codb.Network, error) {
	nw := codb.NewNetworkWithOptions(opts)
	for _, n := range in.Nodes {
		var err error
		if dirOf != nil {
			_, err = nw.AddDurablePeer(n, dirOf(n), relDecl)
		} else {
			_, err = nw.AddPeer(n, relDecl)
		}
		if err != nil {
			nw.Close()
			return nil, err
		}
	}
	for _, r := range in.Rules {
		if err := nw.AddRule(r.ID, r.Text); err != nil {
			nw.Close()
			return nil, err
		}
	}
	return nw, nil
}

func seedData(nw *codb.Network, in *inputs) error {
	for _, n := range in.Nodes {
		if rows := in.Data[n]; len(rows) > 0 {
			if err := nw.Insert(n, relName, rows...); err != nil {
				return err
			}
		}
	}
	return nil
}

var tcpOptions = codb.NetworkOptions{Transport: codb.TransportGroup{TCP: true}}

// wireTotals sums the TCP frame and byte counters over every node (0 on the
// in-process bus).
func wireTotals(nw *codb.Network, nodes []string) (frames, bytes float64) {
	for _, n := range nodes {
		f, b, _ := nw.PeerWireStats(n)
		frames += float64(f)
		bytes += float64(b)
	}
	return frames, bytes
}
