// Package experiment implements the measurement programme of the paper's
// §4 demo: build a network in a given topology, seed a synthetic workload,
// run global updates and queries, and aggregate the statistics every node's
// statistical module accumulated (total execution time, messages per
// coordination rule, data volume, longest update propagation path). It backs
// the root benchmark suite.
package experiment

import (
	"context"
	"time"

	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/peer"
	"codb/internal/storage"
	"codb/internal/topo"
	"codb/internal/transport"
	"codb/internal/workload"
)

// Params describes one experiment cell.
type Params struct {
	Shape         topo.Shape
	Nodes         int
	TuplesPerNode int
	Overlap       float64
	// KeyClash and Domain shape the workload (see workload.Spec).
	KeyClash float64
	Domain   int
	// Rule selects the coordination-rule template; Existential is the
	// legacy alias for topo.ExistentialRule.
	Rule        topo.RuleKind
	Existential bool
	// FanRules multiplies the parallel rules per Fanout edge (see
	// topo.Options.FanRules).
	FanRules int
	Seed     int64

	// Algorithm toggles (ablations).
	MaxDepth   int
	NestedLoop bool

	// TCP runs the network over loopback sockets instead of the
	// in-process bus, so frames-on-the-wire and the outbound pipeline are
	// measured for real.
	TCP bool
	// FullExport disables cross-session incremental export: repeated
	// update sessions re-evaluate and re-ship every link in full (the
	// paper-faithful algorithm, and the steady-state re-ship behaviour the
	// repeated-update benchmarks measure).
	FullExport bool
}

// Result aggregates one run.
type Result struct {
	Params      Params
	Wall        time.Duration
	TotalMsgs   int // SessionData messages shipped network-wide
	TotalBytes  int // their payload volume
	TotalTuples int // frontier bindings shipped
	NewTuples   int // tuples materialised network-wide
	MaxPath     int // longest update propagation path
	ClosedEarly int
	ClosedForce int
	Answers     int // query experiments: number of answers
	// Frames / WireBytes count envelope frames written to the sockets and
	// their volume, network-wide; TCP runs only (0 over the bus). With
	// the outbound pipeline, Frames < the number of payloads sent whenever
	// coalescing packed messages together.
	Frames    int
	WireBytes int
	// Incremental-export statistics, summed network-wide: initial link
	// exports by mode, body tuples the LSN watermarks let exporters skip
	// re-evaluating, bindings the persistent fingerprint sets kept off the
	// wire, and chase/eval errors surfaced during the session.
	ExportsFull        int
	ExportsIncremental int
	ExportsFallback    int
	SkippedByWatermark int
	SuppressedBindings int
	EvalErrors         int
}

// Net is a built, seeded network ready for measurement.
type Net struct {
	Cfg    *config.Config
	Peers  map[string]*peer.Peer
	Origin string
	tcps   []*transport.TCP
	close  func()
}

// Close stops every peer.
func (n *Net) Close() { n.close() }

// FramesSent sums the envelope frames (and their bytes) written by every
// node; zero for bus networks, which have no wire.
func (n *Net) FramesSent() (frames, bytes int) {
	for _, t := range n.tcps {
		frames += int(t.FramesSent())
		bytes += int(t.BytesSent())
	}
	return frames, bytes
}

// Build constructs and seeds a network per the parameters.
func Build(p Params) (*Net, error) {
	cfg, err := topo.Build(p.Shape, p.Nodes, topo.Options{Rule: p.Rule, Existential: p.Existential, Seed: p.Seed, FanRules: p.FanRules})
	if err != nil {
		return nil, err
	}
	peers := make(map[string]*peer.Peer, p.Nodes)
	transports := make(map[string]transport.Transport, p.Nodes)
	closeAll := func() {
		for _, pr := range peers {
			pr.Stop()
		}
		// Transports not yet owned by a peer (mid-build failures).
		for name, tr := range transports {
			if _, owned := peers[name]; !owned {
				tr.Close()
			}
		}
	}
	eval := cq.EvalOptions{}
	if p.NestedLoop {
		eval.Strategy = cq.NestedLoop
	}
	var bus *transport.Bus
	if !p.TCP {
		bus = transport.NewBus()
	}
	net := &Net{Cfg: cfg, Peers: peers, Origin: topo.NodeName(0), close: closeAll}
	directory := make(map[string]string, p.Nodes)
	for _, node := range cfg.Nodes {
		if p.TCP {
			tr, err := transport.NewTCP(node.Name, "127.0.0.1:0")
			if err != nil {
				closeAll()
				return nil, err
			}
			net.tcps = append(net.tcps, tr)
			transports[node.Name] = tr
			directory[node.Name] = tr.Addr()
		} else {
			transports[node.Name] = bus.MustJoin(node.Name)
		}
	}
	for _, node := range cfg.Nodes {
		db, err := storage.Open(storage.Options{})
		if err != nil {
			closeAll()
			return nil, err
		}
		if err := db.DefineSchema(node.Schema); err != nil {
			closeAll()
			return nil, err
		}
		pr, err := peer.New(peer.Options{
			Name:       node.Name,
			Transport:  transports[node.Name],
			Wrapper:    core.NewStoreWrapper(db),
			Directory:  directory,
			MaxDepth:   p.MaxDepth,
			Eval:       eval,
			FullExport: p.FullExport,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		peers[node.Name] = pr
	}
	for _, r := range cfg.Rules {
		rule, err := cq.ParseRule(r.ID, r.Text)
		if err != nil {
			closeAll()
			return nil, err
		}
		for _, endpoint := range []string{rule.Target, rule.Source} {
			if err := peers[endpoint].AddRule(r.ID, r.Text); err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	names := make([]string, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		names = append(names, n.Name)
	}
	seed := workload.Generate(names, workload.Spec{
		TuplesPerNode: p.TuplesPerNode,
		Overlap:       p.Overlap,
		KeyClash:      p.KeyClash,
		Domain:        p.Domain,
		Seed:          p.Seed + 1,
	})
	for node, tuples := range seed {
		if err := peers[node].Insert("data", tuples...); err != nil {
			closeAll()
			return nil, err
		}
	}
	return net, nil
}

// RunUpdate performs one measured global update on a fresh network.
func RunUpdate(ctx context.Context, p Params) (Result, error) {
	net, err := Build(p)
	if err != nil {
		return Result{}, err
	}
	defer net.Close()
	res, err := RunUpdateOn(ctx, net)
	res.Params = p
	return res, err
}

// RunUpdateOn runs one measured global update on an already-built network,
// so benchmarks can amortise the build across iterations. With
// Params.FullExport, updates are repeatable re-ships: per-link sent caches
// are per-session, so a later session re-ships the full frontier over the
// same pipes (materialising nothing new) — steady-state messaging without
// the rebuild cost. In the default incremental mode, later sessions ship
// only what changed since the previous one. Frames and WireBytes are deltas
// for this run.
func RunUpdateOn(ctx context.Context, net *Net) (Result, error) {
	frames0, bytes0 := net.FramesSent()
	start := time.Now()
	rep, err := net.Peers[net.Origin].RunUpdate(ctx)
	if err != nil {
		return Result{}, err
	}
	wall := time.Since(start)
	res := Result{Wall: wall}
	collect(ctx, net, rep.SID, &res)
	res.Frames -= frames0
	res.WireBytes -= bytes0
	return res, nil
}

// collect sums the per-node statistics for the given session, waiting for
// the completion flood to reach every participant (participation is
// detected by the presence of the session report; unreachable peers are
// skipped after a short grace period).
func collect(ctx context.Context, net *Net, sid string, res *Result) {
	deadline := time.Now().Add(5 * time.Second)
	pending := make(map[string]bool, len(net.Peers))
	for name := range net.Peers {
		pending[name] = true
	}
	for len(pending) > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		for name := range pending {
			for _, rep := range net.Peers[name].Reports() {
				if rep.SID != sid {
					continue
				}
				delete(pending, name)
				res.TotalMsgs += rep.SentMsgs
				res.TotalBytes += rep.SentBytes
				res.NewTuples += rep.NewTuples
				res.ClosedEarly += rep.LinksClosedEarly
				res.ClosedForce += rep.LinksClosedForced
				res.ExportsFull += rep.ExportsFull
				res.ExportsIncremental += rep.ExportsIncremental
				res.ExportsFallback += rep.ExportsFallback
				res.SkippedByWatermark += rep.SkippedByWatermark
				res.SuppressedBindings += rep.SuppressedBindings
				res.EvalErrors += rep.EvalErrors
				for _, n := range rep.TuplesPerRule {
					res.TotalTuples += n
				}
				if rep.LongestPath > res.MaxPath {
					res.MaxPath = rep.LongestPath
				}
				break
			}
		}
		if len(pending) > 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Let the pipelines drain before reading the wire counters, so the
	// completion flood's frames are counted too.
	for _, pr := range net.Peers {
		pr.FlushOutbox()
	}
	res.Frames, res.WireBytes = net.FramesSent()
}

// RunQueryCold measures a query-time fetch (no prior materialisation) of
// all data at the origin.
func RunQueryCold(ctx context.Context, p Params) (Result, error) {
	net, err := Build(p)
	if err != nil {
		return Result{}, err
	}
	defer net.Close()
	q := cq.MustParseQuery(`ans(x, y) :- data(x, y)`)
	start := time.Now()
	answers, done, err := net.Peers[net.Origin].QueryStream(q, core.AllAnswers)
	if err != nil {
		return Result{}, err
	}
	n := 0
	for range answers {
		n++
	}
	rep := <-done
	res := Result{Params: p, Wall: time.Since(start), Answers: n}
	collect(ctx, net, rep.SID, &res)
	return res, nil
}

// RunQueryMaterialised measures a local query after a global update; the
// reported wall time covers only the query (the paper's point: after the
// batch update, queries are answered locally).
func RunQueryMaterialised(ctx context.Context, p Params) (Result, error) {
	net, err := Build(p)
	if err != nil {
		return Result{}, err
	}
	defer net.Close()
	urep, err := net.Peers[net.Origin].RunUpdate(ctx)
	if err != nil {
		return Result{}, err
	}
	q := cq.MustParseQuery(`ans(x, y) :- data(x, y)`)
	start := time.Now()
	answers, err := net.Peers[net.Origin].LocalQuery(q, core.AllAnswers)
	if err != nil {
		return Result{}, err
	}
	res := Result{Params: p, Wall: time.Since(start), Answers: len(answers)}
	collect(ctx, net, urep.SID, &res)
	return res, nil
}
