package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// whys gives each workload's one-line reason; BENCHMARK.json carries the
// same text.
var whys = map[string]string{
	wUpdateCold: "first-session full export on a join-heavy 8-node TCP tree: cq, chase, storage commit, msg and wire do the work; WAL idle",
	wUpdateIncr: "steady-state 64-row durable increments down a 6-node TCP chain: fsync wait, per-hop transport and termination dominate; cq idle",
	wQueryFetch: "query-time fetch through an unmaterialised 8-node TCP chain: cq, msg, wire, transport and termination with no commit and no WAL",
	wReadWrite:  "cached and uncached local reads beside paced writes on the in-process bus: storage snapshots and query cache; no wire, no codec",
	wHTTP:       "open-loop HTTP rate ladder against a materialised 4-node chain: JSON, routing and the read path as independent users see them",
}

// document is the benchmark's output: one entry per workload, each metric
// with its unit, sample count and — in a run set — one value per run.
type document struct {
	Commit      string                  `json:"commit"`
	Nproc       int                     `json:"nproc"`
	Gomaxprocs  int                     `json:"gomaxprocs"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Runs        int                     `json:"runs"`
	Quick       bool                    `json:"quick,omitempty"`
	InputDigest string                  `json:"input_digest"`
	Workloads   map[string]*docWorkload `json:"workloads"`
}

type docWorkload struct {
	Why         string             `json:"why"`
	InputDigest string             `json:"input_digest"` // of the first run's seed
	Runs        int                `json:"runs"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Layers      map[string]metric  `json:"layers,omitempty"`
	BlockShare  map[string]float64 `json:"probe_share_of_op,omitempty"`
}

func newDocument(o options) *document {
	return &document{
		Commit: commit(), Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Quick: o.quick,
		Workloads: map[string]*docWorkload{},
	}
}

// add folds one untraced run into the document: every metric keeps one
// value per run and reports their median.
func (d *document) add(res *result) {
	w := d.Workloads[res.Workload]
	if w == nil {
		w = &docWorkload{Why: whys[res.Workload], InputDigest: res.InputDigest, Correct: true, Metrics: map[string]metric{}}
		d.Workloads[res.Workload] = w
		d.InputDigest = d.digest()
	}
	w.Runs++
	w.Correct = w.Correct && res.Correct
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Errors = append(w.Errors, res.Errors...)
	for name, m := range res.Metrics {
		agg := w.Metrics[name]
		agg.Unit, agg.N = m.Unit, m.N
		agg.Values = append(agg.Values, m.Value)
		agg.Value = median(agg.Values)
		w.Metrics[name] = agg
	}
	if res.Layers != nil {
		w.Layers, w.BlockShare = res.Layers, res.BlockShare
	}
}

// addTraced folds the traced pass in: only its per-layer table counts, its
// shortened windows are not end-to-end numbers.
func (d *document) addTraced(res *result) {
	w := d.Workloads[res.Workload]
	w.Layers, w.BlockShare = res.Layers, res.BlockShare
	w.Correct = w.Correct && res.Correct
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Errors = append(w.Errors, res.Errors...)
}

func (d *document) digest() string {
	var parts []string
	for _, name := range workloadNames {
		if w := d.Workloads[name]; w != nil {
			parts = append(parts, name+"="+w.InputDigest)
		}
	}
	return strings.Join(parts, " ")
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		if !w.Correct {
			return false
		}
	}
	return len(d.Workloads) > 0
}

// table prints the human-readable report.
func (d *document) table(out io.Writer) {
	fmt.Fprintf(out, "\ncommit %s  nproc %d  GOMAXPROCS %d  seed %d  window %gs  runs %d\n",
		d.Commit, d.Nproc, d.Gomaxprocs, d.Seed, d.Seconds, d.Runs)
	for _, name := range workloadNames {
		w := d.Workloads[name]
		if w == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s  (inputs %s, %d/%d ops failed)\n", name, w.InputDigest, w.Failed, w.Attempted)
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tgate\tspread")
		names := make([]string, 0, len(w.Metrics))
		for m := range w.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			v := w.Metrics[m]
			gateCol, spreadCol := "-", "-"
			if g := gated(name, m); g != nil {
				gateCol = fmt.Sprintf("%.0f%%", 100*g.Bound)
			} else if m == "failed_ops_ratio" {
				gateCol = "may not rise"
			}
			if len(v.Values) > 1 {
				spreadCol = fmt.Sprintf("%.1f%%", 100*spread(v.Values))
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\t%s\n", m, v.Value, v.Unit, v.N, gateCol, spreadCol)
		}
		tw.Flush()
		if w.Layers == nil {
			continue
		}
		fmt.Fprintln(out, "  per-layer (traced pass, probes replay the op's tuples through each layer alone):")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for _, lm := range layerMetrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", lm.Name, w.Layers[lm.Name].Value, lm.Unit)
		}
		tw.Flush()
		layers := make([]string, 0, len(w.BlockShare))
		for l := range w.BlockShare {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprint(out, "  probe ms ÷ op ms along the blocking path:")
		for _, l := range layers {
			fmt.Fprintf(out, "  %s %.1f%%", l, 100*w.BlockShare[l])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprint(out, interactionNotes)
}

const interactionNotes = `
How the layers interact:
  - Closed-loop workloads (update-cold, update-incr-durable, query-fetch): nothing else contends,
    so a faster layer saves at most its share of the blocking path (the "probe ms ÷ op ms" line).
  - read-write-mix and http-openloop: two cores are shared between generator, readers and writers,
    so freeing CPU in one layer can save more than its share, and latency rises before
    query_per_s / max_rate_ok_rps stop rising.
  - update-incr-durable waits on five hops in series, so the slowest hop (the fsync) sets its time.
`
