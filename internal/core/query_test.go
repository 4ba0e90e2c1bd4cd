package core

import (
	"testing"

	"codb/internal/cq"
	"codb/internal/relation"
)

// localQuery evaluates q over n's current snapshot, as a peer's read path
// does after a global update has materialised everything.
func localQuery(n *Node, q *cq.Query, mode QueryMode) ([]relation.Tuple, error) {
	return EvalQuery(q, n.cfg.Wrapper.ReadSnapshot(), mode, n.cfg.Eval)
}

func TestQueryLocalOnly(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.seed("A", "r", []int{1}, []int{2})
	got, err := localQuery(s.nodes["A"], mustQuery(t, `ans(x) :- r(x)`), AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("local answers = %v", got)
	}
}

func TestDistributedQueryChain(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.addNode("C", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- C.r(x)`)
	s.seed("A", "r", []int{1})
	s.seed("B", "r", []int{2})
	s.seed("C", "r", []int{3})

	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 3 {
		t.Fatalf("answers = %v", answers)
	}
	// Query sessions must not materialise into the LDBs.
	if s.instanceOf("A").Has("r", intRow(3)) {
		t.Error("query leaked data into A's LDB")
	}
	if s.instanceOf("B").Has("r", intRow(3)) {
		t.Error("query leaked data into B's LDB")
	}
}

func TestDistributedQueryOnlyRelevantLinks(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1", "z/1")
	s.addNode("B", "r/1")
	s.addNode("C", "z/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `A.z(x) <- C.z(x)`)
	s.seed("B", "r", []int{1})
	s.seed("C", "z", []int{9})

	rep := func() []string {
		_ = s.query("A", `ans(x) :- r(x)`, AllAnswers)
		reports := s.nodes["A"].Reports()
		return reports[len(reports)-1].Queried
	}()
	if len(rep) != 1 || rep[0] != "B" {
		t.Errorf("query touched %v, want only B", rep)
	}
}

func TestDistributedQueryJoinAcrossNodes(t *testing.T) {
	// A's query joins a local relation with one imported from B, which is
	// itself fed from C.
	s := newSim(t)
	s.addNode("A", "emp/2", "dept/2")
	s.addNode("B", "dept/2")
	s.addNode("C", "dept/2")
	s.rule("r1", `A.dept(x, y) <- B.dept(x, y)`)
	s.rule("r2", `B.dept(x, y) <- C.dept(x, y)`)
	s.seed("A", "emp", []int{1, 10})
	s.seed("C", "dept", []int{10, 100})

	answers := s.query("A", `ans(e, m) :- emp(e, d), dept(d, m)`, AllAnswers)
	if len(answers) != 1 || !answers[0].Equal(intRow(1, 100)) {
		t.Errorf("answers = %v", answers)
	}
}

func TestDistributedQueryCertainAnswersDropNulls(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "p/2")
	s.addNode("B", "q/1")
	s.rule("r1", `A.p(x, z) <- B.q(x)`) // existential z
	s.seed("B", "q", []int{1})

	all := s.query("A", `ans(x, z) :- p(x, z)`, AllAnswers)
	if len(all) != 1 || !all[0].HasNull() {
		t.Errorf("all answers = %v", all)
	}

	s2 := newSim(t)
	s2.addNode("A", "p/2")
	s2.addNode("B", "q/1")
	s2.rule("r1", `A.p(x, z) <- B.q(x)`)
	s2.seed("B", "q", []int{1})
	certain := s2.query("A", `ans(x, z) :- p(x, z)`, CertainAnswers)
	if len(certain) != 0 {
		t.Errorf("certain answers = %v", certain)
	}
	// But projecting away the null yields a certain answer.
	s3 := newSim(t)
	s3.addNode("A", "p/2")
	s3.addNode("B", "q/1")
	s3.rule("r1", `A.p(x, z) <- B.q(x)`)
	s3.seed("B", "q", []int{1})
	proj := s3.query("A", `ans(x) :- p(x, z)`, CertainAnswers)
	if len(proj) != 1 || !proj[0].Equal(intRow(1)) {
		t.Errorf("projected certain answers = %v", proj)
	}
}

func TestDistributedQueryEqualsLocalAfterUpdate(t *testing.T) {
	// The paper's motivation: query-time fetching and local queries after
	// a global update agree (acyclic topologies).
	build := func() *sim {
		s := newSim(t)
		s.addNode("A", "r/2")
		s.addNode("B", "r/2")
		s.addNode("C", "r/2")
		s.rule("r1", `A.r(x, y) <- B.r(x, y)`)
		s.rule("r2", `B.r(x, y) <- C.r(x, y)`)
		s.seed("A", "r", []int{1, 1})
		s.seed("B", "r", []int{2, 2})
		s.seed("C", "r", []int{3, 3})
		return s
	}
	q := `ans(x, y) :- r(x, y)`

	s1 := build()
	distributed := s1.query("A", q, AllAnswers)

	s2 := build()
	s2.update("A")
	local, err := localQuery(s2.nodes["A"], mustQuery(t, q), AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(distributed) != len(local) {
		t.Fatalf("distributed %v vs local-after-update %v", distributed, local)
	}
	keys := make(map[string]bool)
	for _, a := range distributed {
		keys[a.Key()] = true
	}
	for _, a := range local {
		if !keys[a.Key()] {
			t.Errorf("answer %v only in local", a)
		}
	}
}

func TestQueryWithComparisonPushedAcrossHops(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x), x > 10`)
	s.seed("B", "r", []int{5}, []int{15})

	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 1 || !answers[0].Equal(intRow(15)) {
		t.Errorf("answers = %v", answers)
	}
}

func TestQueryNoRelevantLinksFinishesImmediately(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1", "z/1")
	s.addNode("B", "z/1")
	s.rule("r2", `A.z(x) <- B.z(x)`)
	s.seed("A", "r", []int{1})
	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 1 {
		t.Errorf("answers = %v", answers)
	}
}

func TestQuerySessionOverlayDiscarded(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("B", "r", []int{1})
	_ = s.query("A", `ans(x) :- r(x)`, AllAnswers)
	// A second identical query must re-fetch (overlay was per-session) and
	// still return the same answers.
	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 1 {
		t.Errorf("second query answers = %v", answers)
	}
	if s.nodes["A"].Wrapper().Count("r") != 0 {
		t.Error("overlay leaked into LDB")
	}
}

func TestQueryPathLabelsStopCycles(t *testing.T) {
	// Cyclic copy rules: the query still terminates and returns the
	// simple-path approximation (here: everything, since one hop suffices).
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.rule("r2", `B.r(x) <- A.r(x)`)
	s.seed("A", "r", []int{1})
	s.seed("B", "r", []int{2})
	answers := s.query("A", `ans(x) :- r(x)`, AllAnswers)
	if len(answers) != 2 {
		t.Errorf("answers = %v", answers)
	}
}

func TestQueryDuplicateSessionRejected(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	if _, err := s.nodes["A"].StartQuery("dup", mustQuery(t, `ans(x) :- r(x)`), AllAnswers); err != nil {
		t.Fatal(err)
	}
	if _, err := s.nodes["A"].StartQuery("dup", mustQuery(t, `ans(x) :- r(x)`), AllAnswers); err == nil {
		t.Error("duplicate SID accepted")
	}
	if _, err := s.nodes["A"].StartUpdate("dup"); err == nil {
		t.Error("duplicate SID accepted for update")
	}
}

func TestQueryInvalidRejected(t *testing.T) {
	s := newSim(t)
	s.addNode("A", "r/1")
	bad2 := *mustQuery(t, `ans(x) :- r(x)`)
	bad2.Body = nil // empty body: unsafe
	if _, err := s.nodes["A"].StartQuery("q1", &bad2, AllAnswers); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := localQuery(s.nodes["A"], &bad2, AllAnswers); err == nil {
		t.Error("invalid local query accepted")
	}
}

func TestQueryAnswersStreamedIncrementally(t *testing.T) {
	// The origin gets its local answer in the StartQuery result and the
	// remote answer later: both must be streamed exactly once.
	s := newSim(t)
	s.addNode("A", "r/1")
	s.addNode("B", "r/1")
	s.rule("r1", `A.r(x) <- B.r(x)`)
	s.seed("A", "r", []int{1})
	s.seed("B", "r", []int{2})

	sid := "q-stream"
	res, err := s.nodes["A"].StartQuery(sid, mustQuery(t, `ans(x) :- r(x)`), AllAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || !res.Answers[0].Equal(intRow(1)) {
		t.Fatalf("initial answers = %v", res.Answers)
	}
	s.dispatch("A", res, sid)
	s.run()
	total := s.answers[sid]
	if len(total) != 2 {
		t.Errorf("streamed answers = %v", total)
	}
	seen := map[string]bool{}
	for _, a := range total {
		if seen[a.Key()] {
			t.Errorf("answer %v streamed twice", a)
		}
		seen[a.Key()] = true
	}
}
