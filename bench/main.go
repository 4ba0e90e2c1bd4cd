// Command bench is the repository's one benchmark: five session-level
// workloads driven through package codb's Network API and the HTTP gateway,
// each checked against the fixpoint oracle, with a traced pass that probes
// every layer in isolation. See README.md in this directory.
//
//	go run .                                   all workloads, one process each
//	go run . -workload query-fetch             one workload, in this process
//	go run . -trace bench-trace.json           plus the traced pass and layer table
//	go run . -runs 10 -out results/x.json      a run set: ten seeds per workload
//	go run . -compare old.json new.json        verdict per (workload, metric)
//
// The driver's contract is `bash bench/run.sh --workload W --seed N
// --seconds S --trace 0|1` from the repository root: the last line of
// standard output is one JSON object with correct/attempted/failed/metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15 // the measured window, the same on every commit
	warmupSeconds  = 2
	quickSeconds   = 2 // -quick: smoke only, never for numbers
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	seed      int64
	workloads []string
	seconds   float64
	quick     bool
	out       string
	trace     string
	runs      int
	result    string // child mode: write the raw result here
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names string
	var compare bool
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.StringVar(&names, "workload", "", "workload name[,name] (default: all five)")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured window per workload, seconds")
	fs.BoolVar(&o.quick, "quick", false, "2 s windows: smoke only, never for numbers")
	fs.StringVar(&o.out, "out", "", "write the JSON document here")
	fs.StringVar(&o.trace, "trace", "0", "0: off; 1: traced pass; a path: traced pass, spans written there")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, on seeds seed..seed+runs-1 (a run set)")
	fs.StringVar(&o.result, "result", "", "write the raw per-workload result here (used by the parent process)")
	fs.BoolVar(&compare, "compare", false, "compare two documents: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	o.workloads = workloadNames
	if names != "" {
		o.workloads = strings.Split(names, ",")
	}
	for _, n := range o.workloads {
		if _, err := generate(n, 0); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if o.quick {
		o.seconds = quickSeconds
	}
	if o.seconds <= 0 || o.runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	var err error
	if len(o.workloads) == 1 && o.runs == 1 {
		err = runOne(ctx, o, stdout)
	} else {
		err = runAll(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// errIncorrect is returned when a run finished but an operation failed or
// answered wrongly; the details were already printed.
var errIncorrect = errors.New("FAILED: at least one operation failed or answered wrongly")

func traced(spec string) (on bool, file string) {
	switch spec {
	case "", "0":
		return false, ""
	case "1":
		return true, ""
	}
	return true, spec
}

// runOne runs a single workload in this process and ends standard output
// with the driver's one-line JSON object.
func runOne(ctx context.Context, o options, stdout io.Writer) error {
	on, file := traced(o.trace)
	cfg := config{
		seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		warmup: warmupSeconds * time.Second, quick: o.quick, traced: on, spanFile: file,
	}
	if o.quick {
		cfg.warmup = 300 * time.Millisecond
	}
	res, err := runWorkload(ctx, o.workloads[0], cfg)
	if err != nil {
		return err
	}
	if o.result != "" {
		if err := writeJSON(o.result, res); err != nil {
			return err
		}
	}
	doc := newDocument(o)
	doc.add(res)
	if o.out != "" {
		if err := writeJSON(o.out, doc); err != nil {
			return err
		}
	}
	doc.table(stdout)
	fmt.Fprintln(stdout, driverLine(res, on))
	if !res.Correct {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(res.Errors, "; "))
	}
	return nil
}

// driverLine renders the one JSON object the driver reads: every
// end-to-end metric untraced, every per-layer metric traced.
func driverLine(res *result, traced bool) string {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]dm{}
	if traced {
		for _, lm := range layerMetrics {
			metrics[lm.Name] = dm{res.Layers[lm.Name].Value, lm.Unit}
		}
	} else {
		for _, name := range driverEndToEnd {
			metrics[name] = dm{res.Metrics[name].Value, res.Metrics[name].Unit}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b)
}

// runAll runs each workload in a process of its own (so heap, GC state and
// peak RSS do not leak between workloads), -runs times, then — with -trace —
// once more traced, and merges the children's results into one document.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "codb-bench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	child := func(name string, seed int64, trace string) (*result, error) {
		path := filepath.Join(tmp, "result.json")
		cmd := exec.CommandContext(ctx, self,
			"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-result", path, fmt.Sprintf("-quick=%t", o.quick))
		cmd.Stdout, cmd.Stderr = stderr, stderr // the child's table is progress output here
		runErr := cmd.Run()
		var res result
		if err := readJSON(path, &res); err != nil {
			return nil, fmt.Errorf("%s: %v (child: %v)", name, err, runErr)
		}
		os.Remove(path)
		return &res, nil
	}
	doc := newDocument(o)
	for r := 0; r < o.runs; r++ {
		for _, name := range o.workloads {
			res, err := child(name, o.seed+int64(r), "0")
			if err != nil {
				return err
			}
			doc.add(res)
		}
	}
	if on, file := traced(o.trace); on {
		traces := map[string]json.RawMessage{}
		spec := "1"
		if file != "" {
			spec = filepath.Join(tmp, "spans.json")
		}
		for _, name := range o.workloads {
			res, err := child(name, o.seed, spec)
			if err != nil {
				return err
			}
			doc.addTraced(res)
			if file != "" {
				if traces[name], err = os.ReadFile(spec); err != nil {
					return err
				}
			}
		}
		if file != "" {
			if err := writeJSON(file, map[string]any{"workloads": traces}); err != nil {
				return err
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, doc); err != nil {
			return err
		}
	} else {
		b, _ := json.MarshalIndent(doc, "", " ")
		fmt.Fprintln(stdout, string(b))
	}
	doc.table(stdout)
	if !doc.correct() {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// commit is the checkout's git revision, when there is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
