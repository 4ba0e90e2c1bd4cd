package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval. Spans come only from the benchmark's own
// code: a root span per benchmark-issued operation, and child spans around
// each probe call, parented to the span of the op class the probe models.
type span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent,omitempty"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"` // since the tracer started
	EndNs    int64              `json:"end_ns"`
	Outcome  string             `json:"outcome,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"` // sampled at the span's end
}

// maxSpansPerName bounds what one class contributes to the written file, so
// a 100k-op window does not produce a 20 MB trace. All spans still count in
// the statistics; the file says how many were dropped.
const maxSpansPerName = 50

type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	next    int64
	spans   []span
	perName map[string]int
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), perName: map[string]int{}} }

func (t *tracer) add(parent int64, workload, name string, start, end time.Time, outcome string, counters map[string]float64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.perName[name]++
	if t.perName[name] > maxSpansPerName {
		t.dropped++
		return t.next
	}
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Workload: workload, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Outcome: outcome, Counters: counters,
	})
	return t.next
}

func (t *tracer) root(workload, class string, start, end time.Time, ok bool, counters map[string]float64) int64 {
	outcome := "ok"
	if !ok {
		outcome = "failed"
	}
	return t.add(0, workload, "op:"+class, start, end, outcome, counters)
}

// end moves a span's end, for parent spans opened before their children ran.
func (t *tracer) end(id int64, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			t.spans[i].EndNs = at.Sub(t.t0).Nanoseconds()
		}
	}
}

// selfTimes returns, per span name, total duration minus the part covered
// by direct children.
func selfTimes(spans []span) map[string]float64 {
	child := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e6
	}
	return out
}

type traceFile struct {
	Note       string             `json:"note"`
	Dropped    int                `json:"spans_dropped"`
	SelfTimeMs map[string]float64 `json:"self_time_ms"`
	Spans      []span             `json:"spans"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := traceFile{
		Note:       "spans recorded by bench/ only; probe spans are children of the model span of the op class they stand for",
		Dropped:    t.dropped,
		SelfTimeMs: selfTimes(t.spans),
		Spans:      t.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
