package main

// metric is one reported number. N is the sample count behind a timing (0
// for counters and ratios); Values holds one entry per run when a document
// aggregates several runs, and Value is then their median.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// gate describes one gated end-to-end metric: its unit, which direction is
// better, the share of the old median by which it may worsen, and the
// workloads that report it. -compare applies exactly this table.
type gate struct {
	Name      string
	Unit      string
	Higher    bool // true: higher is better
	Bound     float64
	Workloads []string
}

// gates lists the gated end-to-end metrics. The three driver-level metrics
// (setup_s, op_p50_ms, work_per_s) that BENCHMARK.json declares are aliases:
// every workload reports them, each standing for the workload's headline
// latency and rate (see headline); their bounds must hold on the noisiest
// workload and across the host's slow drift (±15% between half-hours on the
// baseline box), so they are the widest the driver allows. The normative
// names keep the issue's 10% wherever two baseline run sets resolved it;
// where they did not (README, repeatability) the metric is reported ungated
// and only its driver-level alias gates it.
var gates = []gate{
	{"setup_s", "s", false, 0.25, workloadNames},
	{"op_p50_ms", "ms", false, 0.25, workloadNames},
	{"work_per_s", "1/s", true, 0.25, workloadNames},
	{"update_p50_ms", "ms", false, 0.10, []string{wUpdateCold, wUpdateIncr}},
	{"update_tuples_per_s", "1/s", true, 0.10, []string{wUpdateCold}},
	{"query_p50_ms", "ms", false, 0.10, []string{wHTTP}},
	{"query_per_s", "1/s", true, 0.10, []string{wQueryFetch}},
	// A rung is a factor of two, so any drop exceeds this bound.
	{"max_rate_ok_rps", "1/s", true, 0.25, []string{wHTTP}},
	{"wire_bytes_per_op", "B", false, 0.03, []string{wUpdateCold, wUpdateIncr, wQueryFetch}},
}

// gated returns the gate of a metric on a workload, nil when it is ungated
// there.
func gated(workload, name string) *gate {
	for i := range gates {
		if gates[i].Name != name {
			continue
		}
		for _, w := range gates[i].Workloads {
			if w == workload {
				return &gates[i]
			}
		}
	}
	return nil
}

// headline names, per workload, the normative metrics the driver-level
// op_p50_ms and work_per_s stand for.
var headline = map[string][2]string{
	wUpdateCold: {"update_p50_ms", "update_tuples_per_s"},
	wUpdateIncr: {"update_p50_ms", "burst_rows_per_s"},
	wQueryFetch: {"query_p50_ms", "query_per_s"},
	wReadWrite:  {"query_reeval_p50_ms", "query_per_s"},
	wHTTP:       {"query_p50_ms", "sat_rps"},
}

// driverEndToEnd are the metrics printed with --trace 0, in BENCHMARK.json's
// end_to_end order.
var driverEndToEnd = []string{"op_p50_ms", "work_per_s", "setup_s"}

// layerMetric describes one per-layer metric printed with --trace 1.
type layerMetric struct {
	Name, Unit string
	Higher     bool
}

// layerMetrics must match BENCHMARK.json's per_layer list (a test checks).
// A workload that bypasses a layer reports 0 for it.
var layerMetrics = []layerMetric{
	{"cq.eval_ms_per_op", "ms", false},
	{"cq.rows_examined_per_result", "count", false},
	{"chase.facts_ms_per_op", "ms", false},
	{"chase.facts_per_binding", "count", false},
	{"storage.commit_ms_per_op", "ms", false},
	{"storage.snapshot_pin_us", "us", false},
	{"storage.view_rebuild_ms", "ms", false},
	{"storage.view_rebuilds_per_write", "count", false},
	{"storage.changes_us", "us", false},
	{"storage.spill_hits", "count", true},
	{"storage.spill_misses", "count", false},
	{"wal.fsyncs_per_commit", "count", false},
	{"wal.bytes_per_user_byte", "B/B", false},
	{"wal.commit_wait_ms", "ms", false},
	{"wal.segments_pruned", "count", true},
	{"msg.encode_ns_per_tuple", "ns", false},
	{"msg.decode_ns_per_tuple", "ns", false},
	{"msg.bytes_per_tuple", "B", false},
	{"wire.frame_ns_per_kb", "ns", false},
	{"wire.header_share", "B/B", false},
	{"transport.frames_per_payload", "count", false},
	{"transport.oneway_us", "us", false},
	{"transport.wire_bytes_per_op", "B", false},
	{"session.unattributed_ms", "ms", false},
	{"session.msgs_per_op", "count", false},
	{"session.exports_full_per_op", "count", false},
	{"session.exports_incremental_per_op", "count", false},
	{"session.skipped_by_watermark_per_op", "count", false},
	{"session.suppressed_bindings_per_op", "count", false},
	{"session.probe_tuples_vs_report", "ratio", true},
	{"session.probe_new_tuples_vs_report", "ratio", true},
	{"core.cache_hit_ratio", "ratio", true},
	{"http.overhead_ms", "ms", false},
	{"http.resp_bytes_per_row", "B", false},
	{"http.max_rate_ok_rps", "1/s", true},
	{"trace_overhead_pct", "%", false},
	{"peak_rss_mb", "MB", false},
}
