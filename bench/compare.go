package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// values returns a metric's per-run values (one when the document holds a
// single run).
func (m metric) values() []float64 {
	if len(m.Values) > 0 {
		return m.Values
	}
	return []float64{m.Value}
}

// verdict compares the new runs of one gated metric with the old ones.
// change is the new median's relative change in the "worse" direction
// (positive = worse), with the old median as its base. A change beyond the
// bound counts only when it also exceeds the run-to-run spread; otherwise a
// spread wider than the bound leaves the metric unresolved, not unchanged.
func verdict(g *gate, old, cur []float64) (v string, oldMed, curMed, change, spr float64) {
	_, oldMed, _ = quartiles(old)
	_, curMed, _ = quartiles(cur)
	spr = math.Max(spread(old), spread(cur))
	if oldMed == 0 {
		if curMed == 0 {
			return vSame, oldMed, curMed, 0, spr
		}
		return vUnresolved, oldMed, curMed, math.Inf(1), spr
	}
	change = (curMed - oldMed) / math.Abs(oldMed)
	if g.Higher {
		change = -change
	}
	switch {
	case math.Abs(change) > g.Bound && math.Abs(change) > spr:
		if change > 0 {
			v = vWorse
		} else {
			v = vBetter
		}
	case spr > g.Bound:
		v = vUnresolved
	default:
		v = vSame
	}
	return v, oldMed, curMed, change, spr
}

// compareDocs prints one row per (workload, gated metric) and reports
// whether anything got worse.
func compareDocs(old, cur *document, out io.Writer) (worse bool) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tverdict\told median\tnew median\tnew÷old\tbound\tspread")
	for _, name := range workloadNames {
		ow, cw := old.Workloads[name], cur.Workloads[name]
		if ow == nil || cw == nil {
			continue
		}
		for i := range gates {
			g := &gates[i]
			if gated(name, g.Name) == nil {
				continue
			}
			om, ook := ow.Metrics[g.Name]
			cm, cok := cw.Metrics[g.Name]
			if !ook || !cok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.0f%%\t-\n", name, g.Name, vUnresolved, 100*g.Bound)
				continue
			}
			v, o, c, _, spr := verdict(g, om.values(), cm.values())
			worse = worse || v == vWorse
			ratio := math.NaN()
			if o != 0 {
				ratio = c / o
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g %s\t%.6g %s\t%.3f of %.6g\t%.0f%%\t%.1f%%\n",
				name, g.Name, v, o, om.Unit, c, cm.Unit, ratio, o, 100*g.Bound, 100*spr)
		}
		// failed_ops_ratio may not rise at all.
		of, cf := ratioOf(ow), ratioOf(cw)
		v := vSame
		if cf > of {
			v, worse = vWorse, true
		} else if cf < of {
			v = vBetter
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_ratio\t%s\t%.6g\t%.6g\t-\tmay not rise\t-\n", name, v, of, cf)
	}
	tw.Flush()
	return worse
}

func ratioOf(w *docWorkload) float64 { return float64(w.Failed) / float64(max(w.Attempted, 1)) }

func compareFiles(oldPath, curPath string, stdout, stderr io.Writer) int {
	var old, cur document
	for path, doc := range map[string]*document{oldPath: &old, curPath: &cur} {
		if err := readJSON(path, doc); err != nil {
			fmt.Fprintln(stderr, "bench: compare:", err)
			return 2
		}
	}
	if old.InputDigest != cur.InputDigest || old.Seconds != cur.Seconds {
		fmt.Fprintf(stdout, "note: the documents differ in inputs or window (%q %gs vs %q %gs)\n",
			old.InputDigest, old.Seconds, cur.InputDigest, cur.Seconds)
	}
	if compareDocs(&old, &cur, stdout) {
		fmt.Fprintln(stdout, "RESULT: worse")
		return 1
	}
	fmt.Fprintln(stdout, "RESULT: no gated metric is worse")
	return 0
}
