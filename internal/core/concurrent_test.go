package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codb/internal/chase"
	"codb/internal/msg"
	"codb/internal/relation"
)

// startUpdateNoWait launches an update without draining the queue, so
// several sessions can interleave.
func (s *sim) startUpdateNoWait(origin string) string {
	sid := msg.NewSID(origin)
	res, err := s.nodes[origin].StartUpdate(sid)
	if err != nil {
		s.t.Fatal(err)
	}
	s.dispatch(origin, res, sid)
	return sid
}

func (s *sim) assertFinished(origin, sid string) msg.UpdateReport {
	s.t.Helper()
	for _, f := range s.finished[origin] {
		if f.SID == sid && f.Initiator {
			return f.Report
		}
	}
	s.t.Fatalf("session %s did not finish at %s", sid, origin)
	return msg.UpdateReport{}
}

// TestConcurrentUpdatesInterleaved: several updates from different origins
// run with interleaved (randomised) message delivery. All terminate, and
// since updates are monotone the final state is the same global fixpoint a
// single update computes.
func TestConcurrentUpdatesInterleaved(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		names, rules, seeds := randomTopology(rnd)

		s := newSim(t)
		s.rnd = rand.New(rand.NewSource(seed ^ 0x77))
		for _, name := range names {
			s.addNode(name, "u/1", "b/2")
		}
		for _, r := range rules {
			s.rule(r.ID, r.String())
		}
		for node, in := range seeds {
			for rel, m := range in {
				for _, tup := range m {
					s.nodes[node].Wrapper().InsertMany(rel, []relation.Tuple{tup})
				}
			}
		}

		// Launch an update at every node, all in flight together.
		sids := make(map[string]string, len(names))
		for _, n := range names {
			sids[n] = s.startUpdateNoWait(n)
		}
		s.run()
		for n, sid := range sids {
			s.assertFinished(n, sid)
		}

		// Oracle over the whole network (every component had an
		// initiator, so everything fires).
		start := make(map[string]relation.Instance)
		for _, n := range names {
			if in, ok := seeds[n]; ok {
				start[n] = in.Clone()
			} else {
				start[n] = relation.NewInstance()
			}
		}
		oracle, _, err := chase.Fixpoint(rules, start, chase.Options{})
		if err != nil {
			return false
		}
		for _, n := range names {
			if !instancesIdentical(s.instanceOf(n), oracle[n]) {
				t.Logf("seed %d node %s:\n got  %v\n want %v", seed, n, dump(s.instanceOf(n)), dump(oracle[n]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalUpdatesConverge: alternate random data insertions and
// updates; after the final update the state equals the oracle fixpoint over
// all data inserted so far (updates are incremental and idempotent).
func TestIncrementalUpdatesConverge(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		names, rules, seeds := randomTopology(rnd)

		s := newSim(t)
		s.rnd = rand.New(rand.NewSource(seed ^ 0x1234))
		for _, name := range names {
			s.addNode(name, "u/1", "b/2")
		}
		for _, r := range rules {
			s.rule(r.ID, r.String())
		}
		for node, in := range seeds {
			for rel, m := range in {
				for _, tup := range m {
					s.nodes[node].Wrapper().InsertMany(rel, []relation.Tuple{tup})
				}
			}
		}
		allSeeds := make(map[string]relation.Instance)
		for _, n := range names {
			allSeeds[n] = seeds[n].Clone()
		}

		origin := names[0]
		rounds := rnd.Intn(3) + 2
		for round := 0; round < rounds; round++ {
			s.update(origin)
			// Inject fresh data at a random node.
			node := names[rnd.Intn(len(names))]
			tup := relation.Tuple{relation.Int(rnd.Intn(4)), relation.Int(rnd.Intn(4))}
			s.nodes[node].Wrapper().InsertMany("b", []relation.Tuple{tup})
			allSeeds[node].Insert("b", tup)
		}
		s.update(origin)

		// Oracle restricted to the origin's component.
		comp := component(origin, rules)
		oracleRules := rules[:0:0]
		for _, r := range rules {
			if comp[r.Source] && comp[r.Target] {
				oracleRules = append(oracleRules, r)
			}
		}
		start := make(map[string]relation.Instance)
		for n := range comp {
			start[n] = allSeeds[n].Clone()
		}
		oracle, _, err := chase.Fixpoint(oracleRules, start, chase.Options{})
		if err != nil {
			return false
		}
		for n := range comp {
			if !instancesIdentical(s.instanceOf(n), oracle[n]) {
				t.Logf("seed %d node %s after %d rounds:\n got  %v\n want %v",
					seed, n, rounds, dump(s.instanceOf(n)), dump(oracle[n]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestUpdateAndQueryConcurrently: a query session and an update session in
// flight together must both finish, and the query must not corrupt the
// update's materialisation.
func TestUpdateAndQueryConcurrently(t *testing.T) {
	s := newSim(t)
	s.rnd = rand.New(rand.NewSource(99))
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.seed("C", "r", []int{1}, []int{2})
	s.seed("B", "r", []int{3})

	usid := s.startUpdateNoWait("A")
	qsid := msg.NewSID("A")
	res, err := s.nodes["A"].StartQuery(qsid, mustQuery(t, `ans(x) :- r(x)`), AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	s.dispatch("A", res, qsid)
	s.run()

	s.assertFinished("A", usid)
	foundQuery := false
	for _, f := range s.finished["A"] {
		if f.SID == qsid {
			foundQuery = true
		}
	}
	if !foundQuery {
		t.Fatal("query session did not finish")
	}
	// The update materialised everything.
	a := s.instanceOf("A")
	for _, v := range []int{1, 2, 3} {
		if !a.Has("r", intRow(v)) {
			t.Errorf("A missing r(%d)", v)
		}
	}
	// The query saw at least the local data and whatever had been
	// materialised; all its answers are valid tuples.
	for _, ans := range s.answers[qsid] {
		if !a.Has("r", ans) {
			t.Errorf("query answer %v not in final state", ans)
		}
	}
}

// TestManySessionsStress: a pile of sessions across origins and kinds on a
// denser graph, randomised delivery; everything must terminate.
func TestManySessionsStress(t *testing.T) {
	s := newSim(t)
	s.rnd = rand.New(rand.NewSource(7))
	const n = 6
	for i := 0; i < n; i++ {
		s.addNode(fmt.Sprintf("N%d", i), "r/1")
	}
	// Ring plus chords.
	for i := 0; i < n; i++ {
		s.rule(fmt.Sprintf("ring%d", i), fmt.Sprintf(`N%d.r(x) <- N%d.r(x)`, i, (i+1)%n))
	}
	s.rule("chord1", `N0.r(x) <- N3.r(x)`)
	s.rule("chord2", `N2.r(x) <- N5.r(x)`)
	for i := 0; i < n; i++ {
		s.seed(fmt.Sprintf("N%d", i), "r", []int{i})
	}

	var pending []struct{ origin, sid string }
	for i := 0; i < n; i++ {
		origin := fmt.Sprintf("N%d", i)
		pending = append(pending, struct{ origin, sid string }{origin, s.startUpdateNoWait(origin)})
		qsid := msg.NewSID(origin)
		res, err := s.nodes[origin].StartQuery(qsid, mustQuery(t, `ans(x) :- r(x)`), AllAnswers)
		if err != nil {
			t.Fatal(err)
		}
		s.dispatch(origin, res, qsid)
		pending = append(pending, struct{ origin, sid string }{origin, qsid})
	}
	s.run()
	for _, p := range pending {
		found := false
		for _, f := range s.finished[p.origin] {
			if f.SID == p.sid {
				found = true
			}
		}
		if !found {
			t.Errorf("session %s at %s did not finish", p.sid, p.origin)
		}
	}
	// Every node converged to the union {0..n-1}.
	for i := 0; i < n; i++ {
		in := s.instanceOf(fmt.Sprintf("N%d", i))
		for v := 0; v < n; v++ {
			if !in.Has("r", intRow(v)) {
				t.Errorf("N%d missing r(%d)", i, v)
			}
		}
	}
}
