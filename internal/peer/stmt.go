package peer

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// stmtTableBound bounds a peer's statement table.
const stmtTableBound = 256

// Statement is a query prepared at one peer: parsed and validated once,
// with the relations it reads, the outgoing links those reads touch and
// its last answers under each answer mode. The parse never goes stale; the
// links are stamped with the read path's published rule-set version and
// re-derived when that version moves; the answers are stamped with the
// commit LSN and rule-set version they were computed at and hit only while
// both still match. The statement table shares one Statement per text
// among all readers; a Statement is safe for concurrent use.
type Statement struct {
	p       *Peer
	text    string // the table key: the prepared text, or a parsed query's rendering
	q       *cq.Query
	valid   bool // q passes Validate (always, for a parsed text)
	rels    []string
	links   atomic.Pointer[stmtLinks]
	answers [2]atomic.Pointer[stmtAnswers] // AllAnswers, CertainAnswers
}

// stmtLinks are the outgoing rules whose heads a statement reads, derived
// from the published rule copy at version ver. No touched rule means the
// statement is local-only: cq.Closure over its relations is empty.
type stmtLinks struct {
	ver     uint64
	touched []*cq.Rule
}

// stmtAnswers are a statement's answers evaluated over the snapshot at
// commit LSN lsn under rule-set version ver. Immutable once published.
type stmtAnswers struct {
	lsn, ver uint64
	rows     []relation.Tuple
}

// slot returns the statement's answers slot for a mode: CertainAnswers has
// its own, every other mode evaluates as AllAnswers (core.EvalQuery).
func (s *Statement) slot(mode core.QueryMode) *atomic.Pointer[stmtAnswers] {
	if mode == core.CertainAnswers {
		return &s.answers[1]
	}
	return &s.answers[0]
}

// Prepare returns the peer's statement for a query text, parsing it only
// when the statement table does not hold it yet. The table is a bounded
// LRU (stmtTableBound texts); a caller may keep and reuse a Statement
// after it has been evicted. A malformed text fails with an error matching
// cq.ErrBadQuery.
func (p *Peer) Prepare(text string) (*Statement, error) {
	if st := p.readPath.stmts.get(text); st != nil {
		return st, nil
	}
	q, err := cq.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return p.readPath.stmts.put(p.newStatement(text, q)), nil
}

// statement returns the peer's statement for a parsed query, interned in
// the statement table under the query's rendering: the *cq.Query entry
// points run the same read path, and share answers, as prepared texts.
// The statement keeps q, so the caller must not mutate it afterwards.
func (p *Peer) statement(q *cq.Query) *Statement {
	text := q.String()
	if st := p.readPath.stmts.get(text); st != nil {
		return st
	}
	return p.readPath.stmts.put(p.newStatement(text, q))
}

func (p *Peer) newStatement(text string, q *cq.Query) *Statement {
	return &Statement{p: p, text: text, q: q, valid: q.Validate() == nil, rels: q.Relations()}
}

// LocalQuery evaluates the statement against local data only, on the
// concurrent read path: evaluation happens on the caller's goroutine over
// a pinned view, with the answers kept on the statement until the next
// commit or rule change, so local queries neither wait for nor delay the
// actor loop.
func (s *Statement) LocalQuery(mode core.QueryMode) ([]relation.Tuple, error) {
	rp := s.p.readPath
	out, _, err := rp.localQuery(s, rp.links(s), mode)
	return out, err
}

// QueryStream starts the statement as a distributed query and returns a
// channel of streamed answers (closed at completion) plus a
// completion-report channel. A statement with no relevant outgoing links — everything it
// reads is local, the steady state after a global update — is answered
// entirely on the concurrent read path (snapshot plus cached answers),
// without entering the actor loop or the session machinery. Otherwise one
// goroutine feeds the channels from the query's answer buffer; if ctx ends
// or the peer stops first, both close without a report, and the session
// runs on without the reader.
func (s *Statement) QueryStream(ctx context.Context, mode core.QueryMode) (<-chan relation.Tuple, <-chan msg.UpdateReport, error) {
	p := s.p
	if rows, rep, ok := p.readPath.tryLocal(s, mode); ok {
		// Full buffering: the consumer can abandon the stream without leaking
		// a goroutine or blocking anything.
		answers := make(chan relation.Tuple, len(rows))
		for _, a := range rows {
			answers <- a
		}
		close(answers)
		done := make(chan msg.UpdateReport, 1)
		done <- rep
		return answers, done, nil
	}
	w, sid, err := s.start(mode)
	if err != nil {
		return nil, nil, err
	}
	answers, done := make(chan relation.Tuple), make(chan msg.UpdateReport, 1)
	go p.feed(ctx, sid, w, answers, done)
	return answers, done, nil
}

// feed streams a query's answers to its reader until the session finishes,
// ctx ends (the waiter is dropped) or the peer stops.
func (p *Peer) feed(ctx context.Context, sid string, w *waiter, answers chan<- relation.Tuple, done chan<- msg.UpdateReport) {
	defer close(done)
	defer close(answers)
	for {
		finished := false
		select {
		case <-w.more:
		case <-w.done:
			finished = true
		case <-ctx.Done():
			p.dropWaiter(sid)
			return
		case <-p.stopped:
			return
		}
		for _, a := range w.take() {
			select {
			case answers <- a:
			case <-ctx.Done():
				p.dropWaiter(sid)
				return
			case <-p.stopped:
				return
			}
		}
		if finished {
			done <- w.rep
			return
		}
	}
}

// Query runs the statement as a distributed query to completion and
// returns all answers. When ctx ends first, the query's waiter is dropped
// and the session runs on without it.
func (s *Statement) Query(ctx context.Context, mode core.QueryMode) ([]relation.Tuple, error) {
	p := s.p
	if rows, _, ok := p.readPath.tryLocal(s, mode); ok {
		return rows, nil
	}
	w, sid, err := s.start(mode)
	if err != nil {
		return nil, err
	}
	select {
	case <-w.done:
		return w.take(), nil
	case <-ctx.Done():
		p.dropWaiter(sid)
		return w.take(), fmt.Errorf("peer %s: query: %w", p.name, ctx.Err())
	case <-p.stopped:
		return w.take(), fmt.Errorf("peer %s: stopped during query", p.name)
	}
}

// start begins the statement as a distributed query session whose answers
// collect in the returned waiter.
func (s *Statement) start(mode core.QueryMode) (*waiter, string, error) {
	p := s.p
	sid := msg.NewSID(p.name)
	w := newWaiter()
	w.more = make(chan struct{}, 1)
	var startErr error
	if err := p.do(func() {
		p.waiting[sid] = w
		res, err := p.node.StartQuery(sid, s.q, mode)
		if err != nil {
			startErr = err
			delete(p.waiting, sid)
			return
		}
		p.dispatch(res)
	}); err != nil {
		return nil, "", err
	}
	if startErr != nil {
		return nil, "", startErr
	}
	return w, sid, nil
}

// stmtTable is a peer's statement table: a bounded, thread-safe LRU from
// query text to its prepared Statement.
type stmtTable struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	byText map[string]*list.Element
}

// newStmtTable builds a table bounded to the given number of statements.
func newStmtTable(capacity int) *stmtTable {
	return &stmtTable{cap: capacity, ll: list.New(), byText: make(map[string]*list.Element)}
}

// len returns the number of statements the table holds.
func (t *stmtTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// get returns the statement for text, or nil when the table lacks it.
func (t *stmtTable) get(text string) *Statement {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byText[text]
	if !ok {
		return nil
	}
	t.ll.MoveToFront(el)
	return el.Value.(*Statement)
}

// put inserts st under its text, evicting the least recently used
// statement when full, and returns the table's statement for the text: a
// concurrent reader's, when one prepared the same text first.
func (t *stmtTable) put(st *Statement) *Statement {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byText[st.text]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*Statement)
	}
	t.byText[st.text] = t.ll.PushFront(st)
	for t.ll.Len() > t.cap {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.byText, oldest.Value.(*Statement).text)
	}
	return st
}
