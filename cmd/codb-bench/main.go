// Command codb-bench runs the paper's §4 experiment programme end to end
// and prints one table per experiment (E1–E7) plus the ablations (A1–A4).
// It is the scripted counterpart of the super-peer demo: networks in
// different topologies are started, coordination rules established, updates
// run, and the aggregated statistics reported.
//
// Usage:
//
//	codb-bench                 # run every experiment
//	codb-bench -exp E1,E4      # run a subset
//	codb-bench -exp B1         # outbound-pipeline batching benchmark
//	codb-bench -exp B2         # cross-session incremental propagation
//	codb-bench -exp B3         # concurrent read path under update load
//	codb-bench -exp B5         # commit latency during background checkpoints
//	codb-bench -exp B6         # HTTP serving layer on a multi-process deployment
//	codb-bench -exp B7         # snapshot-backed write-path evaluation + ScanEq pushdown
//	codb-bench -exp B8         # runtime membership churn vs static membership
//	codb-bench -exp B9         # propagation policies: push vs lazy pull vs adaptive
//	codb-bench -exp B10        # partition/heal: suspicion detection, catch-up, rolling restart
//	codb-bench -nodes 4,8,16   # override the network sizes
//	codb-bench -tuples 500     # override per-node cardinality
//	codb-bench -json .         # also write machine-readable BENCH_<exp>.json
//	codb-bench -exp B4 -cpuprofile cpu.out -memprofile mem.out   # then: go tool pprof -top cpu.out
//
// With -json DIR every experiment additionally writes DIR/BENCH_<exp>.json:
// an array of {name, ns_per_op, msgs, bytes, ...} records, one per table
// row, for the performance trajectory across PRs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/experiment"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/topo"
)

var (
	expFlag    = flag.String("exp", "all", "comma-separated experiments to run (E1..E7,A1..A4,B1..B10 or 'all')")
	nodesFlag  = flag.String("nodes", "4,8,16,32", "comma-separated network sizes")
	tuplesFlag = flag.Int("tuples", 250, "tuples per node")
	seedFlag   = flag.Int64("seed", 42, "workload seed")
	timeout    = flag.Duration("timeout", 5*time.Minute, "per-run timeout")
	jsonDir    = flag.String("json", "", "directory to write BENCH_<exp>.json files into (empty = off)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile to this file when the run ends")
)

// benchRow is one machine-readable result record.
type benchRow struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op"`
	Msgs      int     `json:"msgs"`
	Bytes     int     `json:"bytes"`
	Tuples    int     `json:"tuples,omitempty"`
	NewTuples int     `json:"new_tuples,omitempty"`
	MaxPath   int     `json:"max_path,omitempty"`
	Frames    int     `json:"frames,omitempty"`
	WireBytes int     `json:"wire_bytes,omitempty"`
	// B2 fields: watermark/fingerprint savings per round, the
	// post-first-round tuples/bytes ratios of full over incremental, and
	// whether both modes converged to identical databases.
	Skipped     int     `json:"skipped_by_watermark,omitempty"`
	Suppressed  int     `json:"suppressed_bindings,omitempty"`
	TuplesRatio float64 `json:"tuples_ratio,omitempty"`
	BytesRatio  float64 `json:"bytes_ratio,omitempty"`
	EqualDBs    *bool   `json:"equal_dbs,omitempty"`
	// B3 fields: reader latency tail, query throughput, the headline
	// ratios (under-update p50 over idle p50; warm QPS over cold QPS), and
	// the cache counters behind them.
	P95Ns       float64 `json:"p95_ns,omitempty"`
	QPS         float64 `json:"qps,omitempty"`
	Ratio       float64 `json:"ratio,omitempty"`
	CacheHits   uint64  `json:"cache_hits,omitempty"`
	CacheMisses uint64  `json:"cache_misses,omitempty"`
	// B4 field: fsyncs issued during the durable-commit programme.
	Syncs uint64 `json:"syncs,omitempty"`
	// B5 fields: commit-latency tail during background checkpoints and
	// the number of checkpoints that ran during the measured window.
	P99Ns       float64 `json:"p99_ns,omitempty"`
	Checkpoints int64   `json:"checkpoints,omitempty"`
	// B8 field: dial attempts that exhausted every retry — nonzero means
	// somebody kept a departed peer's stale address.
	DialFails uint64 `json:"dial_failures,omitempty"`
}

func rowOf(name string, r experiment.Result) benchRow {
	return benchRow{
		Name:      name,
		NsPerOp:   float64(r.Wall.Nanoseconds()),
		Msgs:      r.TotalMsgs,
		Bytes:     r.TotalBytes,
		Tuples:    r.TotalTuples,
		NewTuples: r.NewTuples,
		MaxPath:   r.MaxPath,
		Frames:    r.Frames,
		WireBytes: r.WireBytes,
	}
}

// writeBench persists one experiment's rows as BENCH_<exp>.json.
func writeBench(exp string, rows []benchRow) {
	if *jsonDir == "" || len(rows) == 0 {
		return
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench: marshal", exp, ":", err)
		os.Exit(1)
	}
	path := filepath.Join(*jsonDir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

func main() {
	flag.Parse()
	if *b6Worker != "" {
		runB6Worker(*b6Worker)
		return
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(2)
	}
	defer stopProfiles()
	sizes, err := parseSizes(*nodesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(e))] = true
	}
	all := want["ALL"]
	run := func(name string) bool { return all || want[name] }

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if run("E1") || run("E2") || run("E3") || run("E4") {
		topologySweep(ctx, sizes)
	}
	if run("E5") {
		queryVsMaterialised(ctx)
	}
	if run("E6") {
		dynamicReconfig(ctx)
	}
	if run("E7") {
		cyclicFixpoint(ctx)
	}
	if run("A1") {
		ablation(ctx, "A1", "A1: semi-naive vs naive re-evaluation",
			experiment.Params{Shape: topo.Ring, Nodes: 8, TuplesPerNode: *tuplesFlag, Seed: *seedFlag},
			func(p *experiment.Params) { p.Naive = true }, "naive")
	}
	if run("A2") {
		ablation(ctx, "A2", "A2: sent-cache duplicate suppression on/off (projection rules)",
			experiment.Params{Shape: topo.Chain, Nodes: 6, TuplesPerNode: *tuplesFlag,
				Rule: topo.ProjectionRule, KeyClash: 0.8, Seed: *seedFlag},
			func(p *experiment.Params) { p.DisableDedup = true }, "no-dedup")
	}
	if run("A3") {
		ablation(ctx, "A3", "A3: hash join vs nested-loop join (join rules)",
			experiment.Params{Shape: topo.Chain, Nodes: 3, TuplesPerNode: 2 * *tuplesFlag,
				Rule: topo.JoinRule, Domain: 200, Seed: *seedFlag},
			func(p *experiment.Params) { p.NestedLoop = true }, "nested-loop")
	}
	if run("A4") {
		ablation(ctx, "A4", "A4: copy rules vs existential (marked-null) rules",
			experiment.Params{Shape: topo.Tree, Nodes: 7, TuplesPerNode: *tuplesFlag, Seed: *seedFlag},
			func(p *experiment.Params) { p.Existential = true }, "existential")
	}
	if run("B1") {
		fanoutBatching(ctx)
	}
	if run("B2") {
		incrementalRounds(ctx)
	}
	if run("B3") {
		readHeavy(ctx)
	}
	if run("B4") {
		storageEngine(ctx)
	}
	if run("B5") {
		checkpointStall()
	}
	if run("B6") {
		httpServing(ctx)
	}
	if run("B7") {
		snapshotEval(ctx)
	}
	if run("B8") {
		membershipChurn(ctx)
	}
	if run("B9") {
		propagationPolicies(ctx)
	}
	if run("B10") {
		partitionHeal(ctx)
	}
}

// checkpointStall is B5: commit latency while background checkpoints run.
// The pre-segment engine checkpointed stop-the-world — every commit
// blocked behind an exclusive db.mu for the whole snapshot write. The
// background checkpoint pins a Snapshot (a brief all-shard read lock) and
// writes it while commits continue, so the commit p99 during a continuous
// checkpoint storm must stay within 2x of the no-checkpoint p99. For
// scale, a bystander relation is preloaded so each snapshot writes real
// data, and the mean checkpoint duration is reported — the stall every
// commit would have suffered under the stop-the-world design.
func checkpointStall() {
	fmt.Println("== B5: background checkpoints — commit latency p99 vs no-checkpoint baseline")
	const (
		writers    = 4
		perWriter  = 4000
		baseTuples = 40000
	)
	var rows []benchRow
	var p99Base, p99Storm float64
	for _, storm := range []bool{false, true} {
		dir, err := os.MkdirTemp("", "codb-b5-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		db, err := storage.Open(storage.Options{Dir: dir, Shards: 8})
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		for _, def := range []*relation.RelDef{
			{Name: "base", Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}}},
			{Name: "data", Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "w", Type: relation.TInt}}},
		} {
			if err := db.DefineRelation(def); err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench:", err)
				os.Exit(1)
			}
		}
		var preload []relation.Tuple
		for i := 0; i < baseTuples; i++ {
			preload = append(preload, relation.Tuple{relation.Int(i)})
			if len(preload) == 1000 {
				if _, err := db.InsertMany("base", preload); err != nil {
					fmt.Fprintln(os.Stderr, "codb-bench:", err)
					os.Exit(1)
				}
				preload = preload[:0]
			}
		}

		stop := make(chan struct{})
		var ckpts int64
		var ckptNs int64
		ckptDone := make(chan struct{})
		if storm {
			go func() {
				defer close(ckptDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					if err := db.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "codb-bench: checkpoint:", err)
						os.Exit(1)
					}
					ckptNs += time.Since(t0).Nanoseconds()
					ckpts++
				}
			}()
		} else {
			close(ckptDone)
		}

		lat := make([][]time.Duration, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lat[w] = make([]time.Duration, 0, perWriter)
				for i := 0; i < perWriter; i++ {
					t0 := time.Now()
					if _, err := db.Insert("data", relation.Tuple{relation.Int(w*1000000 + i), relation.Int(w)}); err != nil {
						fmt.Fprintln(os.Stderr, "codb-bench:", err)
						os.Exit(1)
					}
					lat[w] = append(lat[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-ckptDone
		db.Close()
		os.RemoveAll(dir)

		var all []time.Duration
		for _, l := range lat {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p50 := all[len(all)/2]
		p99 := all[len(all)*99/100]
		name := "commit-latency/no-checkpoint"
		if storm {
			name = "commit-latency/during-checkpoint"
			p99Storm = float64(p99.Nanoseconds())
		} else {
			p99Base = float64(p99.Nanoseconds())
		}
		fmt.Printf("%-34s p50 %10v p99 %10v  (%d commits, %d checkpoints)\n",
			name, p50, p99, len(all), ckpts)
		row := benchRow{Name: name, NsPerOp: float64(p50.Nanoseconds()),
			P99Ns: float64(p99.Nanoseconds()), Checkpoints: ckpts}
		if storm && ckpts > 0 {
			mean := time.Duration(ckptNs / ckpts)
			fmt.Printf("%-34s %10v mean (the stall a stop-the-world checkpoint would impose)\n",
				"checkpoint-duration", mean)
			rows = append(rows, benchRow{Name: "checkpoint-duration", NsPerOp: float64(mean.Nanoseconds()), Checkpoints: ckpts})
		}
		rows = append(rows, row)
	}
	ratio := p99Storm / p99Base
	fmt.Printf("during-checkpoint/no-checkpoint commit p99: %.2fx (target <= 2x)\n", ratio)
	rows = append(rows, benchRow{Name: "commit-latency/summary", Ratio: ratio})
	fmt.Println()
	writeBench("B5", rows)
}

// storageEngine is B4: the sharded storage engine with group-commit WAL.
// Three programmes:
//
//  1. Durable committed-transaction throughput under SyncOnCommit with 8
//     concurrent writers: the per-commit-fsync baseline (DisableGroupCommit)
//     vs the group-commit pipeline, which coalesces concurrently arriving
//     commits into one fsync per batch. The headline is the throughput
//     ratio (target ≥ 5x).
//  2. Multi-writer in-memory ingest at shards ∈ {1, 4, 16}: 8 writers
//     committing single-tuple transactions into one database; with shards,
//     writers only contend when their tuples hash to the same partition.
//  3. Global-update wall-clock at shards ∈ {1, 4, 16} on a grid network —
//     the end-to-end sanity check that sharding costs nothing when the
//     update pipeline, not the LDB, is the bottleneck.
func storageEngine(ctx context.Context) {
	const writers = 8
	fmt.Println("== B4: sharded storage engine — group-commit WAL + shard-parallel multi-writer ingest")
	var rows []benchRow

	// (1) Durable commit throughput, SyncOnCommit, 16 writers. Three
	// measured passes per mode (fsync latency is noisy on shared hosts);
	// the median is reported.
	const durableWriters = 16
	fmt.Printf("%-34s %12s %12s\n",
		fmt.Sprintf("durable-commit (sync, %d writers)", durableWriters), "txn/s", "fsyncs")
	const durableCommits = 64 // per writer per pass
	var baseTPS, groupTPS float64
	for _, mode := range []struct {
		label   string
		disable bool
	}{{"fsync-per-commit", true}, {"group-commit", false}} {
		type pass struct {
			tps   float64
			syncs uint64
		}
		var passes []pass
		for p := 0; p < 3; p++ {
			dir, err := os.MkdirTemp("", "codb-b4-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench:", err)
				os.Exit(1)
			}
			tps, s := durableCommitBench(dir, durableWriters, durableCommits, mode.disable)
			os.RemoveAll(dir)
			passes = append(passes, pass{tps, s})
		}
		// Median pass, reported as a pair so the txn-per-fsync headline is
		// internally consistent.
		sort.Slice(passes, func(i, j int) bool { return passes[i].tps < passes[j].tps })
		tps, syncs := passes[1].tps, passes[1].syncs
		fmt.Printf("%-34s %12.0f %12d\n", mode.label, tps, syncs)
		rows = append(rows, benchRow{Name: "durable-commit/" + mode.label, QPS: tps, Syncs: syncs})
		if mode.disable {
			baseTPS = tps
		} else {
			groupTPS = tps
		}
	}
	ratio := groupTPS / baseTPS
	fmt.Printf("group-commit/baseline committed-txn throughput: %.1fx\n", ratio)
	rows = append(rows, benchRow{Name: "durable-commit/summary", Ratio: ratio})

	// (2) Multi-writer in-memory ingest across shard counts.
	fmt.Printf("%-34s %12s\n", "ingest (8 writers, memory)", "tuples/s")
	const ingestTuples = 6000 // per writer
	var ingest1 float64
	for _, shards := range []int{1, 4, 16} {
		tps := ingestBench(shards, writers, ingestTuples)
		name := fmt.Sprintf("ingest/shards=%d", shards)
		fmt.Printf("%-34s %12.0f\n", name, tps)
		row := benchRow{Name: name, QPS: tps}
		if shards == 1 {
			ingest1 = tps
		} else {
			row.Ratio = tps / ingest1
		}
		rows = append(rows, row)
	}

	// (3) End-to-end update wall-clock across shard counts.
	fmt.Println(experiment.Header())
	for _, shards := range []int{1, 4, 16} {
		res := must(experiment.RunUpdate(ctx, experiment.Params{
			Shape: topo.Grid, Nodes: 9, TuplesPerNode: *tuplesFlag, Seed: *seedFlag,
			Shards: shards, EvalParallelism: 2,
		}))
		fmt.Println(experiment.Render(res) + fmt.Sprintf("  (shards=%d)", shards))
		rows = append(rows, rowOf(fmt.Sprintf("update/shards=%d", shards), res))
	}
	fmt.Println()
	writeBench("B4", rows)
}

// durableCommitBench times W writers each committing n single-insert
// transactions against one durable, sync-on-commit database, returning the
// committed-transaction throughput and the number of fsyncs issued.
func durableCommitBench(dir string, writersN, n int, disableGroup bool) (tps float64, syncs uint64) {
	db, err := storage.Open(storage.Options{
		Dir:                dir,
		SyncOnCommit:       true,
		DisableGroupCommit: disableGroup,
		Shards:             16,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt},
	}}); err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < writersN; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("data", relation.Tuple{relation.Int(w*1_000_000 + i), relation.Int(i)}); err != nil {
					fmt.Fprintln(os.Stderr, "codb-bench: commit:", err)
					os.Exit(1)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	if st := db.DetailedStats(); st.GroupCommitEnabled {
		syncs = st.GroupCommit.Syncs
	} else {
		syncs = uint64(writersN*n) + 1 // inline: one fsync per commit (+ DDL)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	return float64(writersN*n) / wall.Seconds(), syncs
}

// ingestBench times W writers each committing n single-insert transactions
// into one in-memory database with the given shard count, returning the
// ingest throughput. A secondary index keeps the per-insert critical
// section realistic.
func ingestBench(shards, writersN, n int) float64 {
	db, err := storage.Open(storage.Options{Shards: shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	defer db.Close()
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt},
	}}); err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	if err := db.IndexOn("data", "v"); err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < writersN; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("data", relation.Tuple{relation.Int(w*10_000_000 + i), relation.Int(i % 97)}); err != nil {
					fmt.Fprintln(os.Stderr, "codb-bench: ingest:", err)
					os.Exit(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(writersN*n) / time.Since(t0).Seconds()
}

// readHeavy is B3: the concurrent read path under a read-heavy mixed
// workload. A star network over loopback TCP (the hub is both the queried
// node and the importer every leaf ships to) is materialised once; then N
// paced reader goroutines issue local queries against the hub while rounds
// of "insert burst + global update" (FullExport, so sessions stay long and
// heavy) run concurrently. Reader latency is measured with always-distinct
// queries (every evaluation is a cache miss), so idle and under-update
// phases compare evaluation latency like for like:
//
//   - snapshot read path (default): readers evaluate over pinned storage
//     snapshots off the actor loop — with a core to run on, p50 under load
//     stays within ~2x of idle p50 (on a single-CPU host the ratio also
//     absorbs plain timesharing with the update work);
//   - actor-loop baseline (DisableReadPath): the seed behaviour, every
//     query serialises through the peer goroutine behind the running
//     session's own evaluations.
//
// A final quiescent phase measures query throughput cold (every query
// distinct: full evaluation) vs warm (one query repeated: LSN-validated
// cache hits), the ≥5x headline of the result cache.
func readHeavy(ctx context.Context) {
	const (
		nodes   = 6
		tuples  = 200
		readers = 4
		rounds  = 3                    // update rounds per loaded phase
		burst   = 20                   // insert burst per node per round
		idleN   = 150                  // queries per reader, idle phase
		qpsN    = 400                  // queries per throughput phase
		pace    = 2 * time.Millisecond // open-loop reader inter-arrival
	)
	fmt.Println("== B3: read-heavy mixed workload — snapshot read path + result cache vs actor-loop reads")
	fmt.Printf("%-34s %12s %12s %10s\n", "phase", "p50(µs)", "p95(µs)", "qps")

	var rows []benchRow
	emitLat := func(name string, lats []time.Duration, ratioTo float64) float64 {
		p50, p95 := percentile(lats, 50), percentile(lats, 95)
		row := benchRow{Name: name, NsPerOp: float64(p50.Nanoseconds()), P95Ns: float64(p95.Nanoseconds())}
		if ratioTo > 0 {
			row.Ratio = float64(p50.Nanoseconds()) / ratioTo
		}
		rows = append(rows, row)
		fmt.Printf("%-34s %12.1f %12.1f %10s\n", name,
			float64(p50.Microseconds()), float64(p95.Microseconds()), "-")
		return float64(p50.Nanoseconds())
	}

	var idleP50 float64
	for _, mode := range []struct {
		label    string
		disabled bool
	}{{"snapshot", false}, {"actor-loop", true}} {
		// Star: the hub (the queried origin) imports from every leaf, so
		// update sessions concentrate work in exactly the actor loop the
		// baseline readers must go through.
		net, err := experiment.Build(experiment.Params{
			Shape: topo.Star, Nodes: nodes, TuplesPerNode: tuples, Seed: *seedFlag,
			TCP: true, FullExport: true, DisableReadPath: mode.disabled, EvalParallelism: 2,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		origin := net.Peers[net.Origin]
		if _, err := experiment.RunUpdateOn(ctx, net); err != nil { // materialise
			net.Close()
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}

		// Idle phase: evaluation latency with no session in flight (a
		// short unmeasured warmup settles allocator and parser caches).
		if !mode.disabled {
			runReaders(origin, readers, func() bool { return false }, 30, 0)
			idle := runReaders(origin, readers, func() bool { return false }, idleN, pace)
			idleP50 = emitLat("reader/idle/p50", idle, 0)
		}

		// Loaded phase: the same reader workload while update rounds run.
		stop := make(chan struct{})
		updaterDone := make(chan error, 1)
		var updateWall time.Duration
		go func() {
			defer close(stop)
			for round := 0; round < rounds; round++ {
				for i, node := range net.Cfg.Nodes {
					ts := make([]relation.Tuple, burst)
					for j := range ts {
						k := 20_000_000 + round*1_000_000 + i*burst + j
						ts[j] = relation.Tuple{relation.Int(k), relation.Int(round)}
					}
					if err := net.Peers[node.Name].Insert("data", ts...); err != nil {
						updaterDone <- err
						return
					}
				}
				t0 := time.Now()
				if _, err := experiment.RunUpdateOn(ctx, net); err != nil {
					updaterDone <- err
					return
				}
				updateWall += time.Since(t0)
			}
			updaterDone <- nil
		}()
		loaded := runReaders(origin, readers, func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}, 0, pace)
		if err := <-updaterDone; err != nil {
			net.Close()
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		emitLat("reader/under-update/"+mode.label+"/p50", loaded, idleP50)
		rows = append(rows, benchRow{
			Name:    "update/mean-wall/" + mode.label,
			NsPerOp: float64(updateWall.Nanoseconds()) / rounds,
		})

		// Throughput phase (quiescent, snapshot net only): cold = every
		// query distinct, warm = one query repeated (cache hits).
		if !mode.disabled {
			cold := queryQPS(origin, qpsN, true)
			warm := queryQPS(origin, qpsN, false)
			st, _ := origin.ReadStats()
			rows = append(rows,
				benchRow{Name: "qps/cold", QPS: cold},
				benchRow{Name: "qps/warm", QPS: warm, Ratio: warm / cold,
					CacheHits: st.Hits, CacheMisses: st.Misses})
			fmt.Printf("%-34s %12s %12s %10.0f\n", "qps/cold", "-", "-", cold)
			fmt.Printf("%-34s %12s %12s %10.0f\n", "qps/warm", "-", "-", warm)
			fmt.Printf("warm/cold throughput: %.1fx (cache: %d hits, %d misses)\n",
				warm/cold, st.Hits, st.Misses)
		}
		net.Close()
	}
	fmt.Println()
	writeBench("B3", rows)
}

// readerQuery builds the i-th reader query: a self-join over the workload
// relation with a varying comparison constant, so distinct i yield distinct
// normalized queries — cache misses — with a non-trivial evaluation.
// Latency readers draw i from [0, 100_000) in disjoint per-reader windows;
// the cold throughput phase draws from 200_000 up, so its queries collide
// with nothing cached earlier.
func readerQuery(i int) *cq.Query {
	return cq.MustParseQuery(fmt.Sprintf(`ans(x, z) :- data(x, y), data(y, z), x >= %d`, i))
}

// runReaders fans out n reader goroutines against one peer and returns the
// merged per-query latencies. Readers draw constants from disjoint windows
// of the constant space, so queries are distinct across readers (see
// readerQuery), and pace themselves open-loop (one query per `pace`), so
// the phases measure response time rather than saturation throughput. With
// perReader > 0 each reader stops after that many queries; otherwise
// readers run until stop() reports true.
func runReaders(p *peer.Peer, n int, stop func() bool, perReader int, pace time.Duration) []time.Duration {
	lats := make([][]time.Duration, n)
	var wg sync.WaitGroup
	window := 100_000 / n
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; perReader == 0 || i < perReader; i++ {
				if perReader == 0 && stop() {
					return
				}
				q := readerQuery(r*window + i%window)
				t0 := time.Now()
				if _, err := p.LocalQuery(q, core.AllAnswers); err != nil {
					fmt.Fprintln(os.Stderr, "codb-bench: reader:", err)
					os.Exit(1)
				}
				lats[r] = append(lats[r], time.Since(t0))
				if pace > 0 {
					time.Sleep(pace)
				}
			}
		}(r)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

// queryQPS measures sequential query throughput: distinct queries when cold
// (every evaluation runs), one repeated query when warm (cache hits after
// the first).
func queryQPS(p *peer.Peer, n int, cold bool) float64 {
	warmQ := readerQuery(31_337)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q := warmQ
		if cold {
			q = readerQuery(200_000 + i)
		}
		if _, err := p.LocalQuery(q, core.AllAnswers); err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
	}
	return float64(n) / time.Since(t0).Seconds()
}

// percentile is experiment.Percentile, the shared nearest-rank helper.
func percentile(lats []time.Duration, p int) time.Duration {
	return experiment.Percentile(lats, p)
}

// incrementalRounds is B2: cross-session incremental propagation. A chain
// network over loopback TCP runs k rounds of "commit a small insert burst
// at every node, then run a global update", once with the default
// incremental export (LSN watermarks + shipped fingerprints) and once with
// FullExport (the paper-faithful re-ship baseline). After the first round,
// incremental sessions must ship a small multiple of the burst instead of
// the whole extent, and both modes must converge to identical databases.
func incrementalRounds(ctx context.Context) {
	const (
		nodes  = 8
		tuples = 200
		rounds = 4
		burst  = 10
	)
	fmt.Println("== B2: cross-session incremental propagation — watermarked delta export vs full re-export")
	fmt.Printf("%7s %12s %8s %10s %8s %10s %12s\n", "round", "mode", "msgs", "bytes", "tuples", "skipped", "suppressed")

	var rows []benchRow
	type modeRun struct {
		label   string
		full    bool
		results []experiment.Result
		states  map[string][]relation.Tuple
	}
	runs := []*modeRun{{label: "incremental"}, {label: "full", full: true}}
	for _, m := range runs {
		results, states, err := experiment.RunRounds(ctx, experiment.Params{
			Shape: topo.Chain, Nodes: nodes, TuplesPerNode: tuples, Seed: *seedFlag, TCP: true,
			FullExport: m.full,
		}, rounds, burst)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		m.results, m.states = results, states
		for round, res := range results {
			fmt.Printf("%7d %12s %8d %10d %8d %10d %12d\n", round, m.label,
				res.TotalMsgs, res.TotalBytes, res.TotalTuples,
				res.SkippedByWatermark, res.SuppressedBindings)
			row := rowOf(fmt.Sprintf("round=%d/%s", round, m.label), res)
			row.Skipped = res.SkippedByWatermark
			row.Suppressed = res.SuppressedBindings
			rows = append(rows, row)
		}
	}

	// Post-first-round savings: the acceptance ratio of the incremental
	// machinery.
	var incrTuples, incrBytes, fullTuples, fullBytes int
	for _, res := range runs[0].results[1:] {
		incrTuples += res.TotalTuples
		incrBytes += res.TotalBytes
	}
	for _, res := range runs[1].results[1:] {
		fullTuples += res.TotalTuples
		fullBytes += res.TotalBytes
	}
	tuplesRatio := ratio(fullTuples, incrTuples)
	bytesRatio := ratio(fullBytes, incrBytes)
	equal := experiment.StatesEqual(runs[0].states, runs[1].states)
	fmt.Printf("after round 0: full/incremental tuples %.1fx, bytes %.1fx; databases identical: %v\n\n",
		tuplesRatio, bytesRatio, equal)
	rows = append(rows, benchRow{
		Name:        "summary/full-vs-incremental",
		TuplesRatio: tuplesRatio,
		BytesRatio:  bytesRatio,
		EqualDBs:    &equal,
	})
	writeBench("B2", rows)
	if !equal {
		fmt.Fprintln(os.Stderr, "codb-bench: B2 equality check failed: incremental and full exports diverged")
		os.Exit(1)
	}
}

// ratio guards against a zero denominator (an incremental session that
// shipped nothing at all).
func ratio(full, incr int) float64 {
	if incr == 0 {
		return float64(full)
	}
	return float64(full) / float64(incr)
}

// fanoutBatching is B1: the outbound-pipeline benchmark. A fan-out update
// over loopback TCP (one initiator exporting to N acquaintances through 32
// parallel rules each) is run with the asynchronous batching outbox
// (default) and with synchronous per-message sends (the unbatched
// baseline), recording wall time and frames-on-the-wire.
func fanoutBatching(ctx context.Context) {
	fmt.Println("== B1: fan-out batching — async outbox + frame coalescing vs per-message sends")
	fmt.Printf("%5s %10s %10s %8s %10s %10s\n", "n", "mode", "wall(ms)", "msgs", "frames", "wirebytes")
	var rows []benchRow
	for _, n := range []int{4, 16, 64} {
		for _, mode := range []struct {
			label     string
			unbatched bool
		}{{"batched", false}, {"unbatched", true}} {
			// FullExport keeps repeated sessions re-shipping the full
			// frontier — B1 measures the pipeline, not the watermarks.
			net, err := experiment.Build(experiment.Params{
				Shape: topo.Fanout, Nodes: n + 1, TuplesPerNode: 5, FanRules: 32, Seed: *seedFlag,
				TCP: true, DisableOutbox: mode.unbatched, FullExport: true,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench:", err)
				os.Exit(1)
			}
			// One warm-up, then the average of three measured updates on
			// the same network (later sessions re-ship the full frontier).
			if _, err := experiment.RunUpdateOn(ctx, net); err != nil {
				net.Close()
				fmt.Fprintln(os.Stderr, "codb-bench:", err)
				os.Exit(1)
			}
			var sum experiment.Result
			const runs = 3
			for i := 0; i < runs; i++ {
				res, err := experiment.RunUpdateOn(ctx, net)
				if err != nil {
					net.Close()
					fmt.Fprintln(os.Stderr, "codb-bench:", err)
					os.Exit(1)
				}
				sum.Wall += res.Wall
				sum.TotalMsgs += res.TotalMsgs
				sum.TotalBytes += res.TotalBytes
				sum.TotalTuples += res.TotalTuples
				sum.Frames += res.Frames
				sum.WireBytes += res.WireBytes
			}
			net.Close()
			avg := experiment.Result{
				Wall:        sum.Wall / runs,
				TotalMsgs:   sum.TotalMsgs / runs,
				TotalBytes:  sum.TotalBytes / runs,
				TotalTuples: sum.TotalTuples / runs,
				Frames:      sum.Frames / runs,
				WireBytes:   sum.WireBytes / runs,
			}
			fmt.Printf("%5d %10s %10.3f %8d %10d %10d\n", n, mode.label,
				float64(avg.Wall.Nanoseconds())/1e6, avg.TotalMsgs, avg.Frames, avg.WireBytes)
			rows = append(rows, rowOf(fmt.Sprintf("fanout/n=%d/%s", n, mode.label), avg))
		}
	}
	fmt.Println()
	writeBench("B1", rows)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func must(res experiment.Result, err error) experiment.Result {
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-bench:", err)
		os.Exit(1)
	}
	return res
}

// topologySweep is E1–E4: one update per (shape, size), reporting wall
// time, messages, volume and longest propagation path.
func topologySweep(ctx context.Context, sizes []int) {
	fmt.Println("== E1–E4: global update across topologies")
	fmt.Println("   (E1 wall time; E2 messages; E3 volume; E4 longest propagation path)")
	fmt.Println(experiment.Header())
	var rows []benchRow
	for _, shape := range []topo.Shape{topo.Chain, topo.Ring, topo.Star, topo.Tree, topo.Grid, topo.Random} {
		for _, n := range sizes {
			res := must(experiment.RunUpdate(ctx, experiment.Params{
				Shape: shape, Nodes: n, TuplesPerNode: *tuplesFlag, Overlap: 0.1, Seed: *seedFlag,
			}))
			fmt.Println(experiment.Render(res))
			rows = append(rows, rowOf(fmt.Sprintf("%s/n=%d", shape, n), res))
		}
	}
	fmt.Println()
	writeBench("E1-E4", rows)
}

// queryVsMaterialised is E5.
func queryVsMaterialised(ctx context.Context) {
	fmt.Println("== E5: query-time fetching vs local query after global update")
	fmt.Printf("%-9s %5s %9s %13s %9s\n", "topology", "nodes", "mode", "wall(ms)", "answers")
	var rows []benchRow
	for _, n := range []int{4, 8, 16} {
		p := experiment.Params{Shape: topo.Chain, Nodes: n, TuplesPerNode: *tuplesFlag, Seed: *seedFlag}
		cold := must(experiment.RunQueryCold(ctx, p))
		fmt.Printf("%-9s %5d %9s %13.3f %9d\n", p.Shape, n, "cold", float64(cold.Wall.Nanoseconds())/1e6, cold.Answers)
		rows = append(rows, rowOf(fmt.Sprintf("cold/n=%d", n), cold))
		warm := must(experiment.RunQueryMaterialised(ctx, p))
		fmt.Printf("%-9s %5d %9s %13.3f %9d\n", p.Shape, n, "local", float64(warm.Wall.Nanoseconds())/1e6, warm.Answers)
		rows = append(rows, rowOf(fmt.Sprintf("local/n=%d", n), warm))
	}
	fmt.Println()
	writeBench("E5", rows)
}

// dynamicReconfig is E6: rebuild the topology at runtime, then update.
func dynamicReconfig(ctx context.Context) {
	fmt.Println("== E6: dynamic topology change at runtime (chain -> star), then update")
	fmt.Printf("%5s %15s %12s\n", "nodes", "reconfig(ms)", "update(ms)")
	var rows []benchRow
	for _, n := range []int{4, 8, 16} {
		net, err := experiment.Build(experiment.Params{
			Shape: topo.Chain, Nodes: n, TuplesPerNode: *tuplesFlag, Seed: *seedFlag,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		starCfg, err := topo.Build(topo.Star, n, topo.Options{Version: 2})
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		t0 := time.Now()
		for _, pr := range net.Peers {
			if err := pr.ApplyConfig(starCfg, 2); err != nil {
				fmt.Fprintln(os.Stderr, "codb-bench:", err)
				os.Exit(1)
			}
		}
		reconfig := time.Since(t0)
		t1 := time.Now()
		if _, err := net.Peers[net.Origin].RunUpdate(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "codb-bench:", err)
			os.Exit(1)
		}
		update := time.Since(t1)
		net.Close()
		fmt.Printf("%5d %15.3f %12.3f\n", n, float64(reconfig.Nanoseconds())/1e6, float64(update.Nanoseconds())/1e6)
		rows = append(rows,
			benchRow{Name: fmt.Sprintf("reconfig/n=%d", n), NsPerOp: float64(reconfig.Nanoseconds())},
			benchRow{Name: fmt.Sprintf("update-after/n=%d", n), NsPerOp: float64(update.Nanoseconds())})
	}
	fmt.Println()
	writeBench("E6", rows)
}

// cyclicFixpoint is E7.
func cyclicFixpoint(ctx context.Context) {
	fmt.Println("== E7: cyclic coordination rules (fix-point computation)")
	fmt.Println(experiment.Header())
	var rows []benchRow
	for _, n := range []int{3, 6, 12} {
		res := must(experiment.RunUpdate(ctx, experiment.Params{
			Shape: topo.Ring, Nodes: n, TuplesPerNode: *tuplesFlag, Seed: *seedFlag,
		}))
		fmt.Println(experiment.Render(res))
		rows = append(rows, rowOf(fmt.Sprintf("copy-ring/n=%d", n), res))
		ex := must(experiment.RunUpdate(ctx, experiment.Params{
			Shape: topo.Ring, Nodes: n, TuplesPerNode: *tuplesFlag, Seed: *seedFlag,
			Existential: true, MaxDepth: 8,
		}))
		fmt.Println(experiment.Render(ex) + "  (existential)")
		rows = append(rows, rowOf(fmt.Sprintf("existential-ring/n=%d", n), ex))
	}
	fmt.Println()
	writeBench("E7", rows)
}

// ablation runs a baseline and a variant and prints both rows.
func ablation(ctx context.Context, code, title string, base experiment.Params, vary func(*experiment.Params), label string) {
	fmt.Println("==", title)
	fmt.Println(experiment.Header())
	res := must(experiment.RunUpdate(ctx, base))
	fmt.Println(experiment.Render(res) + "  (baseline)")
	variant := base
	vary(&variant)
	vres := must(experiment.RunUpdate(ctx, variant))
	fmt.Println(experiment.Render(vres) + "  (" + label + ")")
	fmt.Println()
	writeBench(code, []benchRow{rowOf("baseline", res), rowOf(label, vres)})
}
