package core

import (
	"math/rand"
	"testing"

	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// sim runs a network of Nodes synchronously: outbound messages go into a
// queue, delivered one at a time (FIFO, or random order under a seed) —
// a deterministic model of the asynchronous network that lets the algorithm
// be tested without goroutines.
type sim struct {
	t        *testing.T
	nodes    map[string]*Node
	queue    []simEnv
	rnd      *rand.Rand // nil = FIFO delivery
	answers  map[string][]relation.Tuple
	finished map[string][]Finished
	steps    int
	// observe, when set, sees every message as it is delivered.
	observe func(to string, env msg.Envelope)
}

type simEnv struct {
	to  string
	env msg.Envelope
}

func newSim(t *testing.T) *sim {
	return &sim{
		t:        t,
		nodes:    make(map[string]*Node),
		answers:  make(map[string][]relation.Tuple),
		finished: make(map[string][]Finished),
	}
}

// addNode creates a node with a memory store and the given schema relations
// declared as "name/arity" over int attributes (e.g. "r/2").
func (s *sim) addNode(name string, rels ...string) *Node {
	return s.addNodeCfg(Config{Self: name}, rels...)
}

// newTestDB opens a memory store with the given "name/arity" relations.
func newTestDB(tb testing.TB, rels ...string) *storage.DB {
	db := storage.MustOpenMem()
	for _, spec := range rels {
		if err := db.DefineRelation(relDef(spec)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

func (s *sim) addNodeCfg(cfg Config, rels ...string) *Node {
	if cfg.Wrapper == nil {
		cfg.Wrapper = NewStoreWrapper(newTestDB(s.t, rels...))
	}
	n, err := NewNode(cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	s.nodes[cfg.Self] = n
	return n
}

// relDef parses "name/arity" into an all-int relation definition.
func relDef(spec string) *relation.RelDef {
	name := spec[:len(spec)-2]
	arity := int(spec[len(spec)-1] - '0')
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i] = relation.Attr{Name: string(rune('a' + i)), Type: relation.TInt}
	}
	return &relation.RelDef{Name: name, Attrs: attrs}
}

// seed inserts int tuples into a node's store.
func (s *sim) seed(node, rel string, rows ...[]int) {
	n := s.nodes[node]
	for _, row := range rows {
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			t[i] = relation.Int(v)
		}
		if _, err := n.Wrapper().InsertMany(rel, []relation.Tuple{t}); err != nil {
			s.t.Fatal(err)
		}
	}
}

// rule declares a rule on both endpoints (as a config broadcast would).
func (s *sim) rule(id, text string) {
	for _, n := range s.nodes {
		if err := n.AddRule(id, text); err == nil {
			continue
		}
	}
}

// ruleOn declares a rule only on the named node (no broadcast).
func (s *sim) ruleOn(node, id, text string) {
	if err := s.nodes[node].AddRule(id, text); err != nil {
		s.t.Fatal(err)
	}
}

func (s *sim) dispatch(from string, res Result, sid string) {
	for _, o := range res.Out {
		s.queue = append(s.queue, simEnv{to: o.To, env: msg.Envelope{From: from, Payload: o.Payload}})
	}
	s.answers[sid] = append(s.answers[sid], res.Answers...)
	for _, f := range res.Finished {
		s.finished[from] = append(s.finished[from], f)
	}
}

// run delivers messages until the queue drains; fails the test if the
// network does not quiesce within a step budget.
func (s *sim) run() {
	const budget = 2_000_000
	for len(s.queue) > 0 {
		s.steps++
		if s.steps > budget {
			s.t.Fatalf("network did not quiesce after %d deliveries", budget)
		}
		i := 0
		if s.rnd != nil {
			i = s.rnd.Intn(len(s.queue))
		}
		item := s.queue[i]
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		node := s.nodes[item.to]
		if node == nil {
			continue // departed node: message lost
		}
		if s.observe != nil {
			s.observe(item.to, item.env)
		}
		res := node.Handle(item.env)
		sid := sidOf(item.env.Payload)
		s.dispatch(item.to, res, sid)
	}
}

func sidOf(p msg.Payload) string {
	switch m := p.(type) {
	case *msg.SessionRequest:
		return m.SID
	case *msg.SessionData:
		return m.SID
	case *msg.SessionAck:
		return m.SID
	case *msg.SessionDone:
		return m.SID
	default:
		return ""
	}
}

// update runs a global update from the origin to quiescence and asserts the
// initiator reported completion.
func (s *sim) update(origin string) msg.UpdateReport {
	sid := msg.NewSID(origin)
	res, err := s.nodes[origin].StartUpdate(sid)
	if err != nil {
		s.t.Fatal(err)
	}
	s.dispatch(origin, res, sid)
	s.run()
	for _, f := range s.finished[origin] {
		if f.SID == sid && f.Initiator {
			return f.Report
		}
	}
	s.t.Fatalf("update %s did not complete at %s", sid, origin)
	return msg.UpdateReport{}
}

// query runs a distributed query to quiescence and returns the streamed
// answers.
func (s *sim) query(origin, q string, mode QueryMode) []relation.Tuple {
	sid := msg.NewSID(origin)
	res, err := s.nodes[origin].StartQuery(sid, mustQuery(s.t, q), mode)
	if err != nil {
		s.t.Fatal(err)
	}
	s.dispatch(origin, res, sid)
	s.run()
	for _, f := range s.finished[origin] {
		if f.SID == sid {
			return s.answers[sid]
		}
	}
	s.t.Fatalf("query %s did not complete at %s", sid, origin)
	return nil
}

// instanceOf exports a node's current data.
func (s *sim) instanceOf(node string) relation.Instance {
	n := s.nodes[node]
	in := relation.NewInstance()
	for _, rel := range n.Wrapper().Schema().Names() {
		n.Wrapper().Scan(rel, func(t relation.Tuple) bool {
			in.Insert(rel, t)
			return true
		})
	}
	return in
}
