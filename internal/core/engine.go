package core

import (
	"fmt"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// StartUpdate initiates a global update from this node with the given
// session ID (mint one with msg.NewSID). The returned messages must be
// shipped before the caller processes further events.
func (n *Node) StartUpdate(sid string) (Result, error) {
	var r Result
	if n.known(sid) {
		return r, fmt.Errorf("core: session %s already exists", sid)
	}
	s := n.newSession(sid, msg.KindUpdate, n.cfg.Self)
	s.ds.Start()
	n.joinUpdate(s, "", &r)
	n.flushDS(s, &r)
	return r, nil
}

// QueryMode selects answer semantics for distributed queries.
type QueryMode uint8

const (
	// AllAnswers streams every derived answer, marked nulls included.
	AllAnswers QueryMode = iota
	// CertainAnswers suppresses answers containing marked nulls (naive
	// evaluation of naive tables).
	CertainAnswers
)

// StartQuery initiates a distributed query session at this node: the query
// is answered from local data immediately (Result.Answers) and the session
// fetches the transitively relevant remote data, streaming further answers
// through subsequent Handle calls.
func (n *Node) StartQuery(sid string, q *cq.Query, mode QueryMode) (Result, error) {
	var r Result
	if n.known(sid) {
		return r, fmt.Errorf("core: session %s already exists", sid)
	}
	if err := q.Validate(); err != nil {
		return r, err
	}
	s := n.newSession(sid, msg.KindQuery, n.cfg.Self)
	s.query = q
	s.certain = mode == CertainAnswers
	s.answerKeys = make(map[string]bool)
	s.ds.Start()

	// Answer from local data immediately (paper §3): the one full
	// evaluation of the session; fetched data streams further answers
	// semi-naively (streamFresh).
	answers, err := cq.Eval(q, n.sessionView(s), n.cfg.Eval)
	if err != nil {
		n.noteEvalError(s, &r, fmt.Errorf("query eval: %w", err))
	}
	n.streamAnswers(s, answers, &r)

	// Propagate along the relevant outgoing links, path label [self].
	relevant := cq.Closure(q.Relations(), n.Outgoing())
	n.requestQueryLinks(s, relevant, []string{n.cfg.Self}, &r)
	n.flushDS(s, &r)
	return r, nil
}

// StartScopedUpdate initiates a query-dependent update (paper §2): like a
// distributed query it propagates only along the outgoing links
// transitively relevant to the given relations, with path labels — but like
// a global update it materialises the fetched data into the local databases
// along the way, so subsequent queries over those relations are local.
func (n *Node) StartScopedUpdate(sid string, rels []string) (Result, error) {
	if len(rels) == 0 {
		return Result{}, fmt.Errorf("core: scoped update needs at least one relation")
	}
	return n.startScoped(sid, cq.Closure(rels, n.Outgoing()))
}

// StartPull initiates a pull of the given outgoing links: a scoped session
// over exactly those links. Like any scoped session it is transitive — each
// exporter forwards the request to its own relevant outgoing links, whatever
// their policy — so the pull brings this node level with everything upstream
// of the links, and materialises along the way.
func (n *Node) StartPull(sid string, ruleIDs []string) (Result, error) {
	links := make([]*cq.Rule, 0, len(ruleIDs))
	for _, id := range ruleIDs {
		rs := n.rules[id]
		if rs == nil || rs.rule.Target != n.cfg.Self {
			return Result{}, fmt.Errorf("core: cannot pull %s: not an outgoing link of %s", id, n.cfg.Self)
		}
		links = append(links, rs.rule)
	}
	r, err := n.startScoped(sid, links)
	if err == nil {
		for _, id := range ruleIDs {
			n.rules[id].stats.pullsIssued++
		}
	}
	return r, err
}

// startScoped initiates a scoped session over the given outgoing links.
func (n *Node) startScoped(sid string, links []*cq.Rule) (Result, error) {
	var r Result
	if n.known(sid) {
		return r, fmt.Errorf("core: session %s already exists", sid)
	}
	s := n.newSession(sid, msg.KindScoped, n.cfg.Self)
	s.ds.Start()
	n.requestQueryLinks(s, links, []string{n.cfg.Self}, &r)
	n.flushDS(s, &r)
	return r, nil
}

// EvalQuery evaluates a query over any source under the given answer mode:
// the local evaluation step of the peer's concurrent read path, over a
// pinned snapshot. Every mode but CertainAnswers returns all answers.
func EvalQuery(q *cq.Query, src cq.Source, mode QueryMode, opts cq.EvalOptions) ([]relation.Tuple, error) {
	answers, err := cq.Eval(q, src, opts)
	if err != nil {
		return nil, err
	}
	if mode == CertainAnswers {
		answers = cq.FilterCertain(answers)
	}
	return answers, nil
}

// Handle dispatches one inbound envelope to the appropriate handler.
func (n *Node) Handle(env msg.Envelope) Result {
	switch p := env.Payload.(type) {
	case *msg.SessionRequest:
		return n.handleRequest(env.From, p)
	case *msg.SessionData:
		return n.handleData(env.From, p)
	case *msg.SessionAck:
		return n.handleAck(env.From, p)
	case *msg.SessionDone:
		return n.handleDone(env.From, p)
	default:
		return Result{}
	}
}

// joinUpdate performs the once-per-session join actions of a global update:
// evaluate and export every incoming link, then flood the session to the
// acquaintances (duplicate-suppressed). from is the peer whose message made
// this node join ("" at the initiator): it is in the session already, so the
// flood goes back to it only when the request carries rule definitions it
// may have to adopt and export.
func (n *Node) joinUpdate(s *session, from string, r *Result) {
	if s.joined {
		return
	}
	s.joined = true
	for _, rule := range n.Incoming() {
		n.exportSince(s, rule, rule.Target, r)
	}
	if !s.flooded {
		s.flooded = true
		for _, acq := range n.Acquaintances() {
			var defs []msg.RuleDef
			for _, o := range n.Outgoing() {
				if o.Source == acq {
					defs = append(defs, msg.RuleDef{ID: o.ID, Text: n.RuleText(o.ID)})
				}
			}
			if acq == from && len(defs) == 0 {
				continue
			}
			req := &msg.SessionRequest{
				SID:    s.sid,
				Kind:   msg.KindUpdate,
				Origin: s.origin,
				Path:   []string{n.cfg.Self},
				Rules:  defs,
			}
			r.send(acq, req)
			s.ds.Sent(acq, 1)
			if len(defs) > 0 {
				s.noteQueried(acq)
			}
		}
	}
}

// requestQueryLinks sends query-session requests for the given outgoing
// links, honouring the path label ("a node does not propagate a query
// request, if its ID is contained in the label").
func (n *Node) requestQueryLinks(s *session, links []*cq.Rule, path []string, r *Result) {
	bySource := make(map[string][]msg.RuleDef)
	for _, o := range links {
		l := s.link(o.ID)
		if l.requested || containsStr(path, o.Source) {
			continue
		}
		l.requested = true
		bySource[o.Source] = append(bySource[o.Source], msg.RuleDef{ID: o.ID, Text: n.RuleText(o.ID)})
	}
	for src, defs := range bySource {
		req := &msg.SessionRequest{
			SID:    s.sid,
			Kind:   s.kind,
			Origin: s.origin,
			Path:   path,
			Rules:  defs,
		}
		r.send(src, req)
		s.ds.Sent(src, 1)
		s.noteQueried(src)
	}
}

// handleRequest processes a session request from an acquaintance.
func (n *Node) handleRequest(from string, req *msg.SessionRequest) Result {
	var r Result
	s := n.getSession(req.SID, req.Kind, req.Origin)
	s.ds.Received(from)
	if s.done {
		// Stale request after completion: just acknowledge.
		n.flushDS(s, &r)
		return r
	}

	switch req.Kind {
	case msg.KindUpdate:
		// Adopt rules we did not know (the request carries definitions,
		// paper §2); they become part of the topology.
		for _, d := range req.Rules {
			if _, known := n.rules[d.ID]; known {
				continue
			}
			if rule, err := cq.ParseRule(d.ID, d.Text); err == nil && rule.Source == n.cfg.Self {
				_ = n.addParsedRule(rule, d.Text)
			}
		}
		n.joinUpdate(s, from, &r)
		// Export any requested link the join pass did not cover (rules
		// adopted just now are covered by joinUpdate only if joined here;
		// re-run export for listed rules explicitly — exportSince is
		// idempotent per session).
		for _, d := range req.Rules {
			if rs, ok := n.rules[d.ID]; ok && rs.rule.Source == n.cfg.Self {
				n.exportSince(s, rs.rule, rs.rule.Target, &r)
			}
		}

	case msg.KindQuery, msg.KindScoped:
		var listed []*cq.Rule
		for _, d := range req.Rules {
			rule := n.ruleOf(s, d.ID)
			if rule == nil {
				parsed, err := cq.ParseRule(d.ID, d.Text)
				if err != nil || parsed.Source != n.cfg.Self {
					continue
				}
				s.link(d.ID).extra = parsed
				rule = parsed
			}
			if rule.Source != n.cfg.Self {
				continue
			}
			listed = append(listed, rule)
			s.link(rule.ID).requester = rule.Target
			n.exportSince(s, rule, rule.Target, &r)
		}
		// Forward to the outgoing links relevant to what was requested.
		var relevant []*cq.Rule
		for _, o := range n.Outgoing() {
			for _, in := range listed {
				if cq.DependsOn(in, o) {
					relevant = append(relevant, o)
					break
				}
			}
		}
		n.requestQueryLinks(s, relevant, append(append([]string{}, req.Path...), n.cfg.Self), &r)
	}
	n.flushDS(s, &r)
	return r
}

// handleData processes frontier bindings arriving on one of our outgoing
// links, in one order for every kind of session: stage, derive, ship — and
// commit, sync and acknowledge afterwards. The fresh tuples go into the
// session overlay, the dependent links are evaluated over snapshot ∪ overlay
// and their deltas put into the Result, and only the flush that gathers the
// acknowledgements (flushDS, or FlushDeferred at the end of a burst) commits
// the overlay to the LDB. The caller ships the Result while that commit
// waits for its sync, so on a path of durable peers the syncs overlap instead
// of adding up; the fixpoint does not depend on message order, so derived
// tuples may travel ahead of the local sync.
func (n *Node) handleData(from string, d *msg.SessionData) Result {
	var r Result
	s := n.getSession(d.SID, d.Kind, d.Origin)
	s.ds.Received(from)
	if s.done {
		n.flushDS(s, &r)
		return r
	}

	// Stats (paper §4: messages and volume per coordination rule, longest
	// update propagation path).
	s.rep.MsgsPerRule[d.RuleID]++
	s.rep.BytesPerRule[d.RuleID] += d.Size()
	s.rep.TuplesPerRule[d.RuleID] += len(d.Bindings)
	if d.Mode == msg.ExportIncremental {
		s.rep.IncrementalMsgs++
	}
	if len(d.Path) > s.rep.LongestPath {
		s.rep.LongestPath = len(d.Path)
	}

	// Data can be the first contact with an update session; join before
	// anything else so this node exports and floods too.
	if s.kind == msg.KindUpdate {
		n.joinUpdate(s, from, &r)
	}

	rs := n.rules[d.RuleID]
	if rs == nil || rs.applier == nil {
		// Unknown or foreign rule (topology changed mid-session): the
		// message is still acknowledged so termination is preserved.
		n.flushDS(s, &r)
		return r
	}

	// Chase: instantiate heads, stage, collect the per-relation deltas.
	applier := n.sessionApplier(s, rs.applier)
	v := n.sessionView(s)
	fresh := make(map[string][]relation.Tuple)
	stage := func(rel string, ts []relation.Tuple, keys []string) {
		fs, err := v.stage(rel, ts, keys)
		if err != nil {
			return // schema violation from a remote peer: drop, keep going
		}
		if len(fs) > 0 {
			fresh[rel] = fs
			s.rep.NewTuples += len(fs)
			if s.kind == msg.KindScoped {
				rs.stats.pulledTuples += uint64(len(fs))
			}
		}
	}
	if d.Keys != nil && applier.Identity(d.Bindings) {
		// A decoded batch on an identity-head link is its head relation's
		// tuples, keyed by the wire: it is staged as it arrived.
		stage(rs.rule.Head[0].Rel, d.Bindings, d.Keys)
	} else {
		facts := applier.Facts(d.Bindings)
		for _, rel := range rs.rule.HeadRelations() {
			ts := make([]relation.Tuple, 0, len(facts))
			for _, f := range facts {
				if f.Rel == rel {
					ts = append(ts, f.Tuple)
				}
			}
			stage(rel, ts, nil)
		}
	}

	// Propagate the delta through the dependent incoming links (the
	// semi-naive step).
	if len(fresh) > 0 {
		path := append(append([]string{}, d.Path...), n.cfg.Self)
		switch s.kind {
		case msg.KindUpdate:
			for _, in := range n.Incoming() {
				n.exportDelta(s, in, in.Target, fresh, path, &r)
			}
		case msg.KindQuery, msg.KindScoped:
			for id, l := range s.links {
				if l.requester == "" {
					continue
				}
				if in := n.ruleOf(s, id); in != nil {
					n.exportDelta(s, in, l.requester, fresh, path, &r)
				}
			}
			if s.kind == msg.KindScoped {
				n.hintStale(s, fresh, &r)
			}
		}
		// A query origin streams the answers the fresh tuples make new.
		if s.query != nil {
			n.streamFresh(s, fresh, &r)
		}
	}
	n.flushDS(s, &r)
	return r
}

func (n *Node) handleAck(from string, a *msg.SessionAck) Result {
	var r Result
	s := n.sessions[a.SID]
	if s == nil {
		return r // finished: everything it sent was acknowledged or written off
	}
	s.ds.AckReceived(from, a.N)
	n.flushDS(s, &r)
	return r
}

func (n *Node) handleDone(from string, d *msg.SessionDone) Result {
	var r Result
	s := n.sessions[d.SID]
	if s == nil || s.done {
		return r
	}
	n.finalize(s, false, &r)
	// Forward the completion flood once (dedup via s.done).
	for _, acq := range n.Acquaintances() {
		if acq != from {
			r.send(acq, &msg.SessionDone{SID: d.SID, Origin: d.Origin})
		}
	}
	return r
}

// noteEvalError counts a chase/eval failure in the session report and
// surfaces it on the Result; the session continues (termination must still
// be reached) but its outcome may be incomplete.
func (n *Node) noteEvalError(s *session, r *Result, err error) {
	s.rep.EvalErrors++
	r.Errors = append(r.Errors, fmt.Errorf("core: %s session %s: %w", s.kind, s.sid, err))
}

// incrementalFor reports whether cross-session incremental export applies
// to the given session and link: FullExport must be off, the session must
// materialise at the importer (query sessions sink into per-session overlays
// that are discarded at completion, so nothing shipped for one query can be
// assumed present for the next), and the link must be one of the node's
// rules, not one a request declared for its session alone.
func (n *Node) incrementalFor(s *session, rs *ruleState) bool {
	return !n.cfg.FullExport && s.kind != msg.KindQuery && rs != nil
}

// exportSince runs the initial evaluation of an incoming link for a session
// and ships the bindings to the importer. Idempotent per session.
//
// This is the cross-session refactor of the seed's exportFull: the link
// keeps a persistent LSN watermark (the commit horizon up to which its body
// relations have been exported) and only tuples committed past it are
// evaluated, through the same semi-naive machinery the in-session delta
// step uses. The first session, lost change
// history (deletes, changelog truncation, restart past a checkpoint), and
// the FullExport toggle all fall back to a full evaluation.
func (n *Node) exportSince(s *session, rule *cq.Rule, to string, r *Result) {
	l := s.link(rule.ID)
	if l.evaluated {
		return
	}
	l.evaluated = true

	// Lazy links: a global update floods only the cheap invalidation hint;
	// the importer pulls the actual delta on demand with a scoped session,
	// which exports from the durable watermark below, so nothing here is
	// lost — merely deferred. Query and scoped sessions are explicit demand
	// and always export eagerly.
	rs := n.rules[rule.ID] // nil for a rule a query session declared
	switch {
	case rs == nil:
	case s.kind == msg.KindUpdate && rs.pullEffective():
		n.sendHint(s, rs, to, r)
		return
	case s.kind == msg.KindScoped:
		rs.stats.pullsServed++
	}

	// Pin the evaluation view before reading the watermark horizon: the new
	// watermark is the snapshot's own LSN, so it can never advance past
	// commits the evaluation didn't observe.
	v := n.sessionView(s)
	cur := v.snap.LSN()

	mode := msg.ExportFull
	var bindings []relation.Tuple
	var skipped int
	full := func() bool {
		bs, err := chase.Bindings(rule, v, n.chaseOpts())
		if err != nil {
			n.noteEvalError(s, r, fmt.Errorf("export %s: %w", rule.ID, err))
			return false
		}
		bindings = bs
		return true
	}

	switch {
	case !n.incrementalFor(s, rs):
		if !full() {
			return
		}
	case rs.export == nil:
		// First session for this link: full export establishes the
		// watermark.
		if !full() {
			return
		}
		n.beginExport(rs, cur)
		s.track(rule.ID, cur)
	default:
		deltas := make(map[string][]relation.Tuple)
		intact := true
		es := rs.export
		for _, rel := range rule.BodyRelations() {
			delta, ok := n.cfg.Wrapper.Changes(rel, es.watermark)
			if !ok {
				intact = false
				break
			}
			skipped += n.cfg.Wrapper.Count(rel) - len(delta)
			// What the session has staged commits above the new watermark,
			// but this export evaluates over it: it belongs to the delta.
			s.overlay.Scan(rel, func(t relation.Tuple) bool {
				delta = append(delta, t)
				return true
			})
			if len(delta) > 0 {
				deltas[rel] = delta
			}
		}
		if !intact {
			mode, skipped = msg.ExportFallback, 0
			if !full() {
				return
			}
		} else {
			mode = msg.ExportIncremental
			// Committed changes and the overlay may share tuples: not a set.
			bs, evalFailed := n.deltaBindings(s, rule, deltas, chase.BindingsDelta, r)
			bindings = bs
			if evalFailed {
				// A failed delta evaluation must stay above the
				// watermark: ship what did evaluate, but let the next
				// session re-attempt the whole delta instead of
				// permanently losing the failed relation's tuples.
				n.sendData(s, rule, to, bindings, []string{n.cfg.Self}, mode, skipped, r)
				s.rep.ExportsIncremental++
				s.rep.SkippedByWatermark += skipped
				return
			}
		}
		n.setWatermark(es, cur)
		s.track(rule.ID, cur)
	}

	switch mode {
	case msg.ExportIncremental:
		s.rep.ExportsIncremental++
		s.rep.SkippedByWatermark += skipped
	case msg.ExportFallback:
		s.rep.ExportsFallback++
	default:
		s.rep.ExportsFull++
	}
	n.sendData(s, rule, to, bindings, []string{n.cfg.Self}, mode, skipped, r)
}

// deltaBindings evaluates a rule semi-naively over per-relation deltas with
// eval — chase.BindingsSetDelta when every delta is a set, such as the fresh
// tuples view.stage returns, else chase.BindingsDelta; bindings produced
// through more than one delta relation are merged duplicate-free (one
// relation's are unique already and pass through). evalFailed reports
// whether any per-relation evaluation errored (the returned bindings then
// cover only the relations that succeeded).
func (n *Node) deltaBindings(s *session, rule *cq.Rule, deltas map[string][]relation.Tuple, eval deltaEval, r *Result) (bindings []relation.Tuple, evalFailed bool) {
	v := n.sessionView(s)
	var merged relation.Union
	for _, rel := range rule.BodyRelations() {
		delta := deltas[rel]
		if len(delta) == 0 {
			continue
		}
		bs, err := eval(rule, v, rel, delta, n.chaseOpts())
		if err != nil {
			n.noteEvalError(s, r, fmt.Errorf("delta export %s over %s: %w", rule.ID, rel, err))
			evalFailed = true
			continue
		}
		merged.Add(bs)
	}
	return merged.Tuples, evalFailed
}

// deltaEval is the signature of chase.BindingsDelta and BindingsSetDelta.
type deltaEval func(rule *cq.Rule, src cq.Source, deltaRel string, delta []relation.Tuple, opts chase.Options) ([]relation.Tuple, error)

// exportDelta re-evaluates an incoming link against the fresh tuples of the
// running session (the in-session semi-naive step) and ships any new
// bindings.
func (n *Node) exportDelta(s *session, rule *cq.Rule, to string, fresh map[string][]relation.Tuple, path []string, r *Result) {
	// Lazy links defer in-session deltas too; the hint is deduplicated per
	// session, so a link that already hinted at join time stays quiet.
	if s.kind == msg.KindUpdate {
		if rs := n.rules[rule.ID]; rs != nil && rs.pullEffective() {
			n.sendHint(s, rs, to, r)
			s.noteRead(rule.ID, 0, false)
			return
		}
	}
	// Failed per-relation evaluations are counted inside; ship what did
	// evaluate (the session stays live either way), but keep the link's
	// watermark from following the session's commit. What view.stage found
	// fresh is a set.
	bindings, evalFailed := n.deltaBindings(s, rule, fresh, chase.BindingsSetDelta, r)
	s.noteRead(rule.ID, s.pinned.LSN(), !evalFailed)
	n.sendData(s, rule, to, bindings, path, msg.ExportSessionDelta, 0, r)
}

// sendData filters the bindings against the link's session sent cache, then
// ships one data batch.
func (n *Node) sendData(s *session, rule *cq.Rule, to string, bindings []relation.Tuple, path []string, mode msg.ExportMode, skipped int, r *Result) {
	rs := n.rules[rule.ID] // nil for a rule a query session declared
	if rs != nil {
		bindings = rs.applyFilter(bindings)
	}
	// An injective one-atom link of a query session keeps no sent cache: it
	// could never hit. Its bindings stand one to one for body tuples
	// (cq.Rule.Injective), and each tuple reaches the link once: handleRequest
	// activates the link and exports the set snapshot ∪ overlay in one step,
	// and every later delta holds only tuples view.stage found new to
	// snapshot ∪ overlay — and within a session the overlay only grows, and
	// so does the snapshot, since nothing deletes. Deletes (ROADMAP item 7)
	// must revisit this: a tuple deleted and re-derived would ship twice.
	// Update and scoped sessions keep the cache: there a link's deltas may
	// precede its first export (an update exports every incoming link's
	// delta), and that export need not be a set (an incremental one reads
	// committed changes plus the overlay).
	l := s.link(rule.ID)
	if s.kind != msg.KindQuery || !rule.Injective() {
		if l.sent == nil {
			l.sent = make(map[string]bool)
		}
		kept := make([]relation.Tuple, 0, len(bindings))
		for _, b := range bindings {
			if k := b.Key(); !l.sent[k] {
				l.sent[k] = true
				kept = append(kept, b)
			}
		}
		bindings = kept
	}
	if len(bindings) == 0 {
		return
	}
	l.seq++
	data := &msg.SessionData{
		SID:      s.sid,
		Kind:     s.kind,
		Origin:   s.origin,
		RuleID:   rule.ID,
		Bindings: bindings,
		Path:     path,
		Seq:      l.seq,
		Mode:     mode,
		Skipped:  skipped,
	}
	r.send(to, data)
	s.ds.Sent(to, 1)
	s.rep.SentMsgs++
	size := data.Size()
	s.rep.SentBytes += size
	switch {
	case rs == nil:
	case s.kind == msg.KindScoped:
		rs.stats.bytesPulled += uint64(size)
	default:
		rs.stats.bytesPushed += uint64(size)
	}
	s.noteSentTo(to)
}

// streamFresh is the query origin's semi-naive step: for every relation of
// the query that just received fresh tuples, evaluate the query with each
// occurrence of that relation restricted to them, and stream what is new.
// Together with StartQuery's evaluation over the local data this yields
// exactly the answers a full evaluation over everything fetched would, at a
// cost proportional to the batch.
func (n *Node) streamFresh(s *session, fresh map[string][]relation.Tuple, r *Result) {
	v := n.sessionView(s)
	for _, rel := range s.query.Relations() {
		delta := fresh[rel]
		if len(delta) == 0 {
			continue
		}
		answers, err := cq.EvalQueryDelta(s.query, v, rel, delta, n.cfg.Eval)
		if err != nil {
			n.noteEvalError(s, r, fmt.Errorf("query eval over fresh %s: %w", rel, err))
			continue
		}
		n.streamAnswers(s, answers, r)
	}
}

// streamAnswers emits a query origin's answers not yet streamed.
func (n *Node) streamAnswers(s *session, answers []relation.Tuple, r *Result) {
	r.AnswersSID = s.sid
	for _, a := range answers {
		if s.certain && a.HasNull() {
			continue
		}
		k := a.Key()
		if !s.answerKeys[k] {
			s.answerKeys[k] = true
			r.Answers = append(r.Answers, a)
		}
	}
}

// flushDS commits what the session staged, then emits pending
// acknowledgements and, at the initiator, detects termination and floods the
// completion notice. In burst mode (DeferAcks) all of it is postponed to
// FlushDeferred, which commits once and batches acks across the whole burst.
func (n *Node) flushDS(s *session, r *Result) {
	if n.deferAcks {
		n.dirty[s.sid] = s
		return
	}
	n.commitStaged(r, s)
	n.emitDS(s, r)
}

// emitDS is flushDS past the commit: nothing the session staged is unsynced.
func (n *Node) emitDS(s *session, r *Result) {
	acks, terminated := s.ds.Flush()
	for _, a := range acks {
		r.send(a.To, &msg.SessionAck{SID: s.sid, N: a.N})
	}
	if terminated && !s.done {
		n.finalize(s, true, r)
		for _, acq := range n.Acquaintances() {
			r.send(acq, &msg.SessionDone{SID: s.sid, Origin: s.origin})
		}
	}
}

// commitStaged moves the tuples the given sessions staged into the LDB in
// one commit — one WAL record and, on a durable store, one sync for all of
// them — and empties their overlays. It runs before anything that tells
// another node this one is done with a message: no acknowledgement, no
// termination verdict and no completion notice leaves a node that holds
// staged, unsynced tuples, so a finished update still means every hop is
// durable; and the LDB (hence every reader outside the session) never shows
// a tuple before its sync. Query sessions stage to evaluate, not to keep.
func (n *Node) commitStaged(r *Result, sessions ...*session) {
	var staged []*session
	total := 0
	for _, s := range sessions {
		if s.kind == msg.KindQuery || s.overlay == nil {
			continue
		}
		if size := s.overlay.Size(); size > 0 {
			staged = append(staged, s)
			total += size
		}
	}
	if len(staged) == 0 {
		return
	}
	rows := make([]relation.Row, 0, total)
	for _, s := range staged {
		rows = s.overlay.AppendRows(rows)
	}
	before := n.cfg.Wrapper.LSN()
	_, err := n.cfg.Wrapper.InsertKeyed(rows)
	for _, s := range staged {
		// A failed commit loses nothing the overlay could bring back: the
		// store keeps in memory what it may have logged, and refuses whole
		// what it cannot admit.
		s.overlay = relation.NewSet()
		if err != nil {
			n.noteEvalError(s, r, fmt.Errorf("commit of staged tuples: %w", err))
		}
	}
	// A burst's commit of several sessions' tuples moves no watermark: no
	// evaluation saw them all, so a binding joining two of them was shipped
	// by neither.
	if err == nil && len(staged) == 1 && n.cfg.Wrapper.LSN() == before+1 {
		n.followCommit(staged[0], before+1)
	}
}

// followCommit keeps the watermarks exact. The session's staged tuples alone
// have just landed at lsn. A link whose watermark stood at lsn-1 — nothing
// else was committed since — and whose every evaluation since the session
// last committed read the snapshot at lsn-1 has shipped every binding over
// the data at lsn: the tuples the evaluations saw staged are what the commit
// holds. Its watermark follows the commit. Any other link keeps its
// watermark for the rest of the session, and the next session re-ships from
// there, which set semantics make safe.
func (n *Node) followCommit(s *session, lsn uint64) {
	for id, l := range s.links {
		if !l.tracked {
			continue
		}
		if rs := n.rules[id]; rs != nil && rs.export != nil && rs.export.watermark == lsn-1 && l.read == lsn-1 {
			n.setWatermark(rs.export, lsn)
			l.read = lsn
		} else {
			l.read = mixedReads
		}
	}
}

// finalize completes a session at this node: commit what it still has
// staged (a completion notice can overtake the flush when an upstream peer
// wrote this node off), stamp the report, and surface it.
func (n *Node) finalize(s *session, initiator bool, r *Result) {
	n.commitStaged(r, s)
	s.done = true
	s.rep.EndUnixNano = n.cfg.Clock()
	n.recordReport(s.rep)
	r.Finished = append(r.Finished, Finished{SID: s.sid, Initiator: initiator, Report: s.rep})
	n.forget(s)
	// The handler that finished it may still hold the session (and a burst's
	// dirty list, until FlushDeferred): keep only what they read. The
	// detector state goes too; a stale message later in the burst engages
	// the stub's anew (getSession).
	*s = session{sid: s.sid, kind: s.kind, origin: s.origin, done: true}
}

// sessionApplier returns the applier a session instantiates a rule's head
// with, given the rule's own. A rule with existential variables gets a
// fork of it, so the facts and skips it remembers per binding are released
// with the session; any other rule remembers nothing and uses the rule's
// applier as it is.
func (n *Node) sessionApplier(s *session, a *chase.Applier) *chase.Applier {
	if !a.Existential() {
		return a
	}
	l := s.link(a.Rule().ID)
	if l.applier == nil || l.applier.Rule() != a.Rule() {
		l.applier = a.Fork()
	}
	return l.applier
}

// CompensateLost self-acknowledges n basic messages to `to` whose delivery
// failed (the receiving peer left the network). Without this a departed
// peer would leave the initiator's deficit forever nonzero; with it,
// sessions terminate even on dynamic networks, as the paper requires. The
// caller must then process the returned messages as usual.
func (n *Node) CompensateLost(sid, to string, lost int) Result {
	var r Result
	if lost <= 0 {
		return r
	}
	s := n.sessions[sid]
	if s == nil {
		// A session can finish here with messages in flight when an
		// upstream peer wrote this node off; their loss still voids what
		// the export state claims the importer holds.
		if sentTo, ok := n.finished[sid]; ok {
			n.distrustImporter(sentTo, to)
		}
		return r
	}
	n.distrustImporter(s.rep.SentTo, to)
	// A pipe-down write-off (CompensatePeerLoss) may already have cleared
	// these messages: count only what is still outstanding.
	s.rep.CompensatedLost += s.ds.AckReceived(to, lost)
	n.flushDS(s, &r)
	return r
}

// CompensatePeerLoss writes off every active session's outstanding deficit
// toward a peer whose pipe has failed. Over an asynchronous transport a
// frame can be written successfully into a connection the far side has
// already abandoned — no send error is ever observed for it — so when the
// transport reports the pipe down, the outstanding per-destination deficit
// is the exact count of messages that can no longer be acknowledged.
func (n *Node) CompensatePeerLoss(to string) Result {
	var r Result
	for _, s := range n.sessions {
		if lost := s.ds.LostPeer(to); lost > 0 {
			s.rep.CompensatedLost += lost
			n.distrustImporter(s.rep.SentTo, to)
			n.flushDS(s, &r)
		}
	}
	return r
}

// distrustImporter is called when messages of a session toward a peer are
// written off, with the peers the session shipped data to. If they include
// that peer, the write-off may cover data: the peer acknowledges data only
// once it is synced, so unacknowledged bindings may be held nowhere — lost
// on the wire, or staged at the peer when it died. The export state toward
// the peer claims it has them; it is reset, and the next session re-exports
// those links in full (set semantics make that safe).
func (n *Node) distrustImporter(sentTo []string, peer string) {
	if containsStr(sentTo, peer) {
		n.ResetExportStateToward(peer)
	}
}

// ruleOf resolves a rule by ID against the node's rules and the session's
// query-local extras.
func (n *Node) ruleOf(s *session, id string) *cq.Rule {
	if rs, ok := n.rules[id]; ok {
		return rs.rule
	}
	if l := s.links[id]; l != nil {
		return l.extra
	}
	return nil
}

func containsStr(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
