package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// runHolding delivers queued messages, FIFO, until only those hold picks
// are left, and returns them undelivered.
func (s *sim) runHolding(hold func(to string, env msg.Envelope) bool) []simEnv {
	var held []simEnv
	for len(s.queue) > 0 {
		item := s.queue[0]
		s.queue = s.queue[1:]
		if hold(item.to, item.env) {
			held = append(held, item)
			continue
		}
		if node := s.nodes[item.to]; node != nil {
			s.dispatch(item.to, node.Handle(item.env), sidOf(item.env.Payload))
		}
	}
	return held
}

// deliver hands one held message to its node.
func (s *sim) deliver(item simEnv) {
	s.dispatch(item.to, s.nodes[item.to].Handle(item.env), sidOf(item.env.Payload))
}

// oracleOf is chase.Fixpoint over the given base data, with every node
// present.
func oracleOf(t *testing.T, rules []*cq.Rule, nodes []string, base map[string]relation.Instance) map[string]relation.Instance {
	t.Helper()
	start := make(map[string]relation.Instance, len(nodes))
	for _, n := range nodes {
		start[n] = relation.NewInstance()
		if in, ok := base[n]; ok {
			start[n] = in.Clone()
		}
	}
	out, _, err := chase.Fixpoint(rules, start, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func subsetOf(a, b relation.Instance) bool {
	for rel, m := range a {
		for k := range m {
			if _, ok := b[rel][k]; !ok {
				return false
			}
		}
	}
	return true
}

func parseRules(t *testing.T, defs [][2]string) []*cq.Rule {
	t.Helper()
	out := make([]*cq.Rule, 0, len(defs))
	for _, d := range defs {
		r, err := cq.ParseRule(d[0], d[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestConcurrentSessionsJoiningAtARelay: two update sessions bring B a tuple
// each, t1 from C and t2 from D, and t1 ⋈ t2 is a binding of B's link to A.
// Each session evaluates that link over B's snapshot plus its own staged
// tuples, so neither ships the join. The link's watermark must therefore
// not move past both commits: the next update ships the join from there.
//
//	(a) Both sessions stage at B before either commits; each then commits
//	    alone. The first commit moves the watermark (its evaluations read
//	    the snapshot at the watermark); the second may not, because its
//	    evaluations read a snapshot that lacked the first commit.
//	(b) Both are committed in one FlushDeferred batch: no watermark moves.
//
// After the sessions every node holds only oracle tuples, and after one more
// update every node equals chase.Fixpoint.
func TestConcurrentSessionsJoiningAtARelay(t *testing.T) {
	defs := [][2]string{
		{"ra", `A.out(x, z) <- B.r(x, y), B.s(y, z)`},
		{"rc", `B.r(x, y) <- C.r(x, y)`},
		{"rd", `B.s(x, y) <- D.s(x, y)`},
	}
	rules := parseRules(t, defs)
	names := []string{"A", "B", "C", "D"}
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			s := newSim(t)
			s.addNode("A", "out/2")
			b := s.addNode("B", "r/2", "s/2")
			s.addNode("C", "r/2")
			s.addNode("D", "s/2")
			for _, d := range defs {
				s.rule(d[0], d[1])
			}
			s.seed("C", "r", []int{1, 10})
			s.seed("D", "s", []int{10, 100})
			s.updateSID("A", "u0")

			toB := func(to string, env msg.Envelope) bool {
				_, data := env.Payload.(*msg.SessionData)
				return data && to == "B"
			}
			// S1 reaches C and D before t2 exists, so it brings t1 alone;
			// S2 brings t2 alone.
			s.seed("C", "r", []int{2, 20})
			s1 := s.startUpdateNoWait("A")
			held1 := s.runHolding(toB)
			s.seed("D", "s", []int{20, 200})
			s2 := s.startUpdateNoWait("A")
			held2 := s.runHolding(toB)
			if len(held1) != 1 || len(held2) != 1 {
				t.Fatalf("held %d and %d data messages to B, want one per session", len(held1), len(held2))
			}

			w0 := b.ExportWatermarks()["ra"]
			b.DeferAcks(true)
			s.deliver(held2[0]) // S2 stages t2
			if batched {
				s.deliver(held1[0]) // S1 stages t1
			} else {
				b.DeferAcks(false)
				s.deliver(held1[0]) // S1 stages t1 and commits alone
				if got := b.ExportWatermarks()["ra"]; got != w0+1 {
					t.Fatalf("watermark after the first commit = %d, want %d", got, w0+1)
				}
			}
			s.dispatch("B", b.FlushDeferred(), "")
			s.run()
			s.assertFinished("A", s1)
			s.assertFinished("A", s2)
			want := w0 + 1
			if batched {
				want = w0
			}
			if got := b.ExportWatermarks()["ra"]; got != want {
				t.Errorf("watermark after both commits = %d, want %d", got, want)
			}

			base := map[string]relation.Instance{"C": s.instanceOf("C"), "D": s.instanceOf("D")}
			oracle := oracleOf(t, rules, names, base)
			for _, n := range names {
				if !subsetOf(s.instanceOf(n), oracle[n]) {
					t.Fatalf("after the sessions %s holds %v, beyond the oracle", n, s.instanceOf(n))
				}
			}
			s.updateSID("A", "u3")
			for _, n := range names {
				if !instancesIdentical(s.instanceOf(n), oracle[n]) {
					t.Fatalf("after one more update %s holds %v, oracle %v", n, s.instanceOf(n), oracle[n])
				}
			}
			// And the network stays there: nothing is owed.
			s.updateSID("A", "u4")
			if got := receivedTuples(reportFor(t, s.nodes["A"], "u4")); got != 0 {
				t.Errorf("a settled network shipped %d tuples to A", got)
			}
		})
	}
}

// TestCrashAtEveryExportRecord kills the relay B of a chain A <- B <- C at
// every record boundary of its WAL, over a run of session commits (which
// carry B's watermark advances), local inserts and a reset logged when the
// importer A lost its data. The run is replayed from the start for each
// crash point; B's files are copied as a kill leaves them, and the peers
// that had messages in flight to B write them off. After B reopens over the
// copy, no watermark exceeds the recovered LSN, the reset — once in the
// log — is not undone, and one more update brings every node to
// chase.Fixpoint.
func TestCrashAtEveryExportRecord(t *testing.T) {
	defs := [][2]string{
		{"ra", `A.r(x) <- B.r(x)`},
		{"rb", `B.r(x) <- C.r(x)`},
	}
	rules := parseRules(t, defs)
	names := []string{"A", "B", "C"}

	// scenario runs the whole story, calling crashed after every delivery
	// and at the end of every step (stepEnd); crashed returns true to stop
	// there.
	type world struct {
		s        *sim
		db       *storage.DB
		dir      string
		resetLSN uint64 // B's LSN once the reset is logged (0 before)
	}
	scenario := func(crashed func(w *world, stepEnd bool) bool) *world {
		s := newSim(t)
		w := &world{s: s, dir: t.TempDir()}
		db, err := storage.Open(storage.Options{Dir: w.dir})
		if err != nil {
			t.Fatal(err)
		}
		w.db = db
		if err := db.DefineRelation(relDef("r/1")); err != nil {
			t.Fatal(err)
		}
		s.addNode("A", "r/1")
		s.addNodeCfg(Config{Self: "B", Wrapper: NewStoreWrapper(db)})
		s.addNode("C", "r/1")
		for _, d := range defs {
			s.rule(d[0], d[1])
		}
		update := func() bool {
			res, err := s.nodes["A"].StartUpdate(msg.NewSID("A"))
			if err != nil {
				t.Fatal(err)
			}
			s.dispatch("A", res, "")
			for len(s.queue) > 0 {
				s.runOne()
				if crashed(w, false) {
					return true
				}
			}
			return crashed(w, true)
		}
		steps := []func() bool{
			func() bool { s.seed("C", "r", []int{1}, []int{2}); return update() },
			func() bool { s.seed("B", "r", []int{50}); return crashed(w, true) },
			update,
			func() bool { s.seed("C", "r", []int{3}); return update() },
			func() bool {
				// A loses its data; B is told, and logs the reset.
				s.addNode("A", "r/1")
				s.ruleOn("A", "ra", defs[0][1])
				s.nodes["B"].ResetExportStateToward("A")
				w.resetLSN = db.LSN()
				return crashed(w, true)
			},
			func() bool { s.seed("C", "r", []int{4}); return update() },
			update,
		}
		for _, step := range steps {
			if step() {
				return w
			}
		}
		return w
	}

	// A first run finds the crash points: every call after which B's LSN
	// has moved — a record boundary — and every step's end.
	var points []int
	var last uint64
	call := 0
	final := scenario(func(w *world, stepEnd bool) bool {
		if lsn := w.db.LSN(); lsn != last || stepEnd {
			points = append(points, call)
			last = lsn
		}
		call++
		return false
	})
	final.db.Close()
	for _, point := range points {
		call := 0
		w := scenario(func(*world, bool) bool {
			call++
			return call > point
		})
		t.Run(fmt.Sprintf("call=%d/lsn=%d", point, w.db.LSN()), func(t *testing.T) {
			s := w.s
			// The kill: B's files as they stand, B's unsent output gone.
			trial := t.TempDir()
			copyDir(t, w.dir, trial)
			w.db.Close()
			// What B sent before it died still arrives; what is sent to it
			// is lost, and the pipe failure writes it off.
			delete(s.nodes, "B")
			s.run()
			for _, n := range []string{"A", "C"} {
				s.dispatch(n, s.nodes[n].CompensatePeerLoss("B"), "")
			}
			s.run()

			db, err := storage.Open(storage.Options{Dir: trial})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for key, wm := range db.Marks() {
				if wm > db.LSN() {
					t.Fatalf("mark %q = %d is ahead of the recovered LSN %d", key, wm, db.LSN())
				}
			}
			b := s.addNodeCfg(Config{Self: "B", Wrapper: NewStoreWrapper(db)})
			for _, d := range defs {
				s.ruleOn("B", d[0], d[1])
			}
			if wm, ok := b.ExportWatermarks()["ra"]; ok && wm < w.resetLSN {
				t.Fatalf("watermark %d restored from before the reset at %d", wm, w.resetLSN)
			}
			s.update("A")
			base := map[string]relation.Instance{"A": s.instanceOf("A"), "B": s.instanceOf("B"), "C": s.instanceOf("C")}
			oracle := oracleOf(t, rules, names, base)
			for _, n := range names {
				if !instancesIdentical(s.instanceOf(n), oracle[n]) {
					t.Fatalf("%s holds %v after one more update, oracle %v", n, s.instanceOf(n), oracle[n])
				}
			}
		})
	}
	if len(points) < 8 {
		t.Fatalf("only %d crash points", len(points))
	}
}

// runOne delivers the next queued message (FIFO).
func (s *sim) runOne() {
	item := s.queue[0]
	s.queue = s.queue[1:]
	if node := s.nodes[item.to]; node != nil {
		s.dispatch(item.to, node.Handle(item.env), sidOf(item.env.Payload))
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
