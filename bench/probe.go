package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
	"codb/internal/wal"
	"codb/internal/wire"
)

// link is one coordination rule's traffic in one modelled operation.
type link struct {
	rule  *cq.Rule
	src   relation.Instance // exporter state the rule body is evaluated over
	delta []relation.Tuple  // body tuples new in this op; nil means a full evaluation
	tgt   relation.Instance // importer state before the op; nil means nothing is committed
	msgs  int               // SessionData messages the live run sent over the link per op
}

// opModel is what one operation of a workload asks of every layer, derived
// from the oracle's fixpoint of the same inputs: the tuples each link ships,
// the facts each importer commits, the queries the origin evaluates.
type opModel struct {
	class   string  // recorder class the model stands for
	links   []link  // exporter-side first: paths index into this
	paths   [][]int // link indexes along each origin-to-leaf path
	queries []*cq.Query
	origin  relation.Instance // what the queries evaluate over
	durable bool              // commits go through a WAL with SyncOnCommit
	wire    bool              // links cross sockets (false on the in-process bus)
}

// layerReport is the outcome of the probes for one workload.
type layerReport struct {
	class  string
	vals   map[string]float64 // per-layer metrics by name
	pathMs map[string]float64 // layer -> probe ms along the blocking path
	tuples int                // tuples the model ships per op
	facts  int                // facts the model commits per op
}

const probeReps = 3

// timeMedian runs fn probeReps times and returns the median duration in ms.
// Each call is a child span of parent in the traced pass.
func (p *prober) timeMedian(name string, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		p.tr.add(p.parent, p.workload, "probe:"+name, t, end, "", nil)
		ms = append(ms, float64(end.Sub(t).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

type prober struct {
	tr       *tracer
	parent   int64
	workload string
	tmp      string // directory for durable probes
}

func relDef() *relation.RelDef {
	return &relation.RelDef{Name: relName, Attrs: []relation.Attr{
		{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt},
	}}
}

// loadDB opens a database holding inst. With a dir it is durable and
// syncs on commit, as the durable workload's peers do.
func loadDB(inst relation.Instance, dir string) (*storage.DB, error) {
	db, err := storage.Open(storage.Options{Dir: dir, SyncOnCommit: dir != ""})
	if err != nil {
		return nil, err
	}
	if err := db.DefineRelation(relDef()); err != nil {
		db.Close()
		return nil, err
	}
	if rows := inst.Tuples(relName); len(rows) > 0 {
		if _, err := db.InsertMany(relName, rows); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// countingSource counts the rows a scan hands to the evaluator while keeping
// the snapshot's equality pushdown.
type countingSource struct {
	snap *storage.Snapshot
	rows int
}

func (c *countingSource) Scan(rel string, fn func(relation.Tuple) bool) {
	c.snap.Scan(rel, func(t relation.Tuple) bool { c.rows++; return fn(t) })
}

func (c *countingSource) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	c.snap.ScanEq(rel, pos, v, func(t relation.Tuple) bool { c.rows++; return fn(t) })
}

func evalLink(l *link, src cq.Source) ([]relation.Tuple, error) {
	if l.delta != nil {
		return chase.BindingsDelta(l.rule, src, relName, l.delta, chase.Options{})
	}
	return chase.Bindings(l.rule, src, chase.Options{})
}

// sessionData splits a link's bindings into the number of messages the live
// run used, so the codec probes encode the same batches.
func sessionData(l *link, bindings []relation.Tuple) []*msg.SessionData {
	n := max(l.msgs, 1)
	out := make([]*msg.SessionData, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(bindings)/n, (i+1)*len(bindings)/n
		out = append(out, &msg.SessionData{
			SID: "N0-0123456789abcdef", Kind: msg.KindUpdate, Origin: "N0", RuleID: l.rule.ID,
			Bindings: bindings[lo:hi], Path: []string{l.rule.Source}, Seq: i,
		})
	}
	return out
}

// run probes every layer with the model's work.
func (p *prober) run(m *opModel) (*layerReport, error) {
	rep := &layerReport{class: m.class, vals: map[string]float64{}, pathMs: map[string]float64{}}
	began := time.Now()
	p.parent = p.tr.add(0, p.workload, "model:"+m.class, began, began, "", nil)

	type linkCost struct{ cq, chase, commit, enc, dec, frame float64 }
	costs := make([]linkCost, len(m.links))
	var examined, results, bindingsN, factsN int
	var encNs, decNs, frameNs, bodyBytes, frames float64
	var pinUs, rebuildMs, changesUs []float64
	var sample msg.Payload

	for i := range m.links {
		l := &m.links[i]
		srcDB, err := loadDB(l.src, "")
		if err != nil {
			return nil, err
		}
		snap := srcDB.Snapshot()
		bindings, err := evalLink(l, snap) // also builds the snapshot's lazy views
		if err != nil {
			srcDB.Close()
			return nil, err
		}
		c := &costs[i]
		if c.cq, err = p.timeMedian("cq.eval", func() error { _, err := evalLink(l, snap); return err }); err != nil {
			srcDB.Close()
			return nil, err
		}
		counter := &countingSource{snap: snap}
		if _, err := evalLink(l, counter); err != nil {
			srcDB.Close()
			return nil, err
		}
		srcDB.Close()
		examined += counter.rows
		results += len(bindings)
		bindingsN += len(bindings)

		// msg + wire: encode, frame, read back and decode the link's batches.
		batches := sessionData(l, bindings)
		if m.wire {
			var bodies [][]byte
			var tags []msg.Tag
			c.enc, err = p.timeMedian("msg.encode", func() error {
				bodies, tags = bodies[:0], tags[:0]
				for _, sd := range batches {
					body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: l.rule.Source, Payload: sd})
					if err != nil {
						return err
					}
					bodies, tags = append(bodies, body), append(tags, tag)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			c.frame, err = p.timeMedian("wire.frame", func() error {
				for j, body := range bodies {
					f := wire.AppendFrame(nil, wire.MaxVersion, byte(tags[j]), body)
					if _, _, err := wire.ReadFrame(bytes.NewReader(f)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			c.dec, err = p.timeMedian("msg.decode", func() error {
				for j, body := range bodies {
					if _, err := msg.DecodeEnvelope(tags[j], body); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			for _, body := range bodies {
				bodyBytes += float64(len(body))
			}
			frames += float64(len(bodies))
			encNs += c.enc * 1e6
			decNs += c.dec * 1e6
			frameNs += c.frame * 1e6
			if sample == nil && len(batches) > 0 {
				sample = batches[len(batches)/2]
			}
		}

		// chase: instantiate the heads, a fresh applier each time (no memo).
		var facts []chase.Fact
		c.chase, err = p.timeMedian("chase.facts", func() error {
			a, err := chase.NewApplier(l.rule, chase.Options{})
			if err != nil {
				return err
			}
			facts = a.Facts(bindings)
			return nil
		})
		if err != nil {
			return nil, err
		}
		factsN += len(facts)

		// storage: commit the op's facts at the importer, then look at what a
		// commit costs its readers.
		if l.tgt == nil {
			continue
		}
		rows := make([]relation.Tuple, len(facts))
		for j, f := range facts {
			rows[j] = f.Tuple
		}
		var ms []float64
		for r := 0; r < probeReps; r++ {
			dir := ""
			if m.durable {
				if dir, err = os.MkdirTemp(p.tmp, "probe-db-"); err != nil {
					return nil, err
				}
			}
			db, err := loadDB(l.tgt, dir)
			if err != nil {
				return nil, err
			}
			db.Snapshot().Scan(relName, func(relation.Tuple) bool { return false })
			lsn := db.LSN()
			t := time.Now()
			_, err = db.InsertMany(relName, rows)
			end := time.Now()
			if err != nil {
				db.Close()
				return nil, err
			}
			p.tr.add(p.parent, p.workload, "probe:storage.commit", t, end, "", nil)
			ms = append(ms, float64(end.Sub(t).Nanoseconds())/1e6)

			t = time.Now()
			snap := db.Snapshot()
			pinUs = append(pinUs, float64(time.Since(t).Nanoseconds())/1e3)
			t = time.Now()
			snap.Scan(relName, func(relation.Tuple) bool { return false })
			snap.ScanEq(relName, 0, relation.Int(0), func(relation.Tuple) bool { return false })
			rebuildMs = append(rebuildMs, float64(time.Since(t).Nanoseconds())/1e6)
			t = time.Now()
			db.Changes(relName, lsn)
			changesUs = append(changesUs, float64(time.Since(t).Nanoseconds())/1e3)
			db.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
		c.commit = median(ms)
	}

	// Queries the origin evaluates: one per op, so the per-op cost is the mean.
	var queryMs float64
	if len(m.queries) > 0 {
		db, err := loadDB(m.origin, "")
		if err != nil {
			return nil, err
		}
		snap := db.Snapshot()
		for _, q := range m.queries { // warm the snapshot's views
			if _, err := cq.Eval(q, snap, cq.EvalOptions{}); err != nil {
				db.Close()
				return nil, err
			}
		}
		total, err := p.timeMedian("cq.eval", func() error {
			for _, q := range m.queries {
				if _, err := cq.Eval(q, snap, cq.EvalOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		counter := &countingSource{snap: snap}
		for _, q := range m.queries {
			ans, _ := cq.Eval(q, counter, cq.EvalOptions{})
			results += len(ans)
		}
		examined += counter.rows
		db.Close()
		queryMs = total / float64(len(m.queries))
	}

	// transport: one hop over loopback TCP with a representative batch.
	var onewayUs float64
	if m.wire && sample != nil {
		var err error
		if onewayUs, err = p.oneway(sample); err != nil {
			return nil, err
		}
	}
	if m.durable {
		ms, err := p.walCommit(1152) // a 64-row burst: 64 × 18 encoded bytes
		if err != nil {
			return nil, err
		}
		rep.vals["wal.commit_wait_ms"] = ms
	}

	// Fold per-link costs into per-op totals and the blocking path.
	var sumCQ, sumChase, sumCommit float64
	for _, c := range costs {
		sumCQ += c.cq
		sumChase += c.chase
		sumCommit += c.commit
	}
	best := -1.0
	for _, path := range m.paths {
		layer := map[string]float64{}
		for _, i := range path {
			c := costs[i]
			layer["cq"] += c.cq
			layer["chase"] += c.chase
			layer["storage"] += c.commit
			layer["msg"] += c.enc + c.dec
			layer["wire"] += c.frame
			if m.wire {
				layer["transport"] += onewayUs / 1e3
			}
		}
		layer["cq"] += queryMs
		if t := sum(mapValues(layer)); t > best {
			best, rep.pathMs = t, layer
		}
	}
	if len(m.paths) == 0 {
		rep.pathMs["cq"] = queryMs
	}
	rep.tuples, rep.facts = bindingsN, factsN
	v := rep.vals
	v["cq.eval_ms_per_op"] = sumCQ + queryMs
	if results > 0 {
		v["cq.rows_examined_per_result"] = float64(examined) / float64(results)
	}
	v["chase.facts_ms_per_op"] = sumChase
	if bindingsN > 0 {
		v["chase.facts_per_binding"] = float64(factsN) / float64(bindingsN)
	}
	v["storage.commit_ms_per_op"] = sumCommit
	v["storage.snapshot_pin_us"] = median(pinUs)
	v["storage.view_rebuild_ms"] = median(rebuildMs)
	v["storage.changes_us"] = median(changesUs)
	if m.wire && bindingsN > 0 {
		v["msg.encode_ns_per_tuple"] = encNs / float64(bindingsN)
		v["msg.decode_ns_per_tuple"] = decNs / float64(bindingsN)
		v["msg.bytes_per_tuple"] = bodyBytes / float64(bindingsN)
		v["wire.frame_ns_per_kb"] = frameNs / (bodyBytes / 1024)
		v["wire.header_share"] = frames * wire.HeaderLen / bodyBytes
		v["transport.oneway_us"] = onewayUs
	}
	p.tr.end(p.parent, time.Now())
	return rep, nil
}

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// oneway times Outbox.Send to the receiving Handler over a loopback TCP
// pair, one payload in flight at a time; the median, in µs.
func (p *prober) oneway(payload msg.Payload) (float64, error) {
	a, err := transport.NewTCP("probe-a", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b, err := transport.NewTCP("probe-b", "127.0.0.1:0")
	if err != nil {
		a.Close()
		return 0, err
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	a.SetHandler(func(msg.Envelope) {})
	b.SetHandler(func(msg.Envelope) { got <- struct{}{} })
	out := transport.NewOutbox(a, transport.OutboxOptions{})
	defer out.Close()
	if err := out.Connect("probe-b", b.Addr()); err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 220; i++ {
		t := time.Now()
		if err := out.Send("probe-b", payload); err != nil {
			return 0, err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("transport probe: payload %d never arrived", i)
		}
		end := time.Now()
		if i >= 20 { // the first sends warm the pipe
			us = append(us, float64(end.Sub(t).Nanoseconds())/1e3)
			p.tr.add(p.parent, p.workload, "probe:transport.oneway", t, end, "", nil)
		}
	}
	return median(us), nil
}

// walCommit times GroupCommitter.Commit(sync) of one record of the given
// size on a Segmented log in a temp dir; the median, in ms.
func (p *prober) walCommit(size int) (float64, error) {
	dir, err := os.MkdirTemp(p.tmp, "probe-wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	seg, err := wal.OpenSegmented(dir, 0, wal.SegmentedOptions{}, func(uint64, []byte) error { return nil })
	if err != nil {
		return 0, err
	}
	defer seg.Close()
	g := wal.NewGroupCommitter(seg)
	defer g.Close()
	payload := bytes.Repeat([]byte{0xAB}, size)
	var ms []float64
	for i := 0; i < 60; i++ {
		t := time.Now()
		if err := <-g.Commit(payload, true); err != nil {
			return 0, err
		}
		end := time.Now()
		p.tr.add(p.parent, p.workload, "probe:wal.commit", t, end, "", nil)
		ms = append(ms, float64(end.Sub(t).Nanoseconds())/1e6)
	}
	return median(ms), nil
}
