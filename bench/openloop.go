package main

import (
	"context"
	"sync"
	"time"
)

// olJob is one scheduled request: its index in the run and when it is due.
type olJob struct {
	i   int
	due time.Time
}

// openLoop issues requests at a fixed rate for dur, regardless of how fast
// they complete: one scheduler goroutine releases request i at
// start + i/rate, and `workers` goroutines (one connection each) execute
// them. Every request is timed from its due time, so the wait a stall
// imposes on later requests counts (no coordinated omission); gen_late is
// how long after its due time a request actually left the generator.
// Requests still queued when dur ends are not started; their number is the
// backlog. do returns the request's class and error; samples are recorded
// under class+suffix.
func openLoop(ctx context.Context, rec *recorder, suffix string, rate float64, dur time.Duration, workers int,
	do func(worker, i int) (class string, err error)) (backlog int, elapsed time.Duration) {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	end := start.Add(dur)
	// Sized to the number of sends: the scheduler must never block on a
	// slow system, that is what makes the loop open.
	queue := make(chan olJob, n)

	var wg sync.WaitGroup
	recs := make([]*recorder, workers)
	left := make([]int, workers)
	for w := range recs {
		recs[w] = rec.fork()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for job := range queue {
				sent := time.Now()
				if !sent.Before(end) {
					left[w]++
					continue
				}
				class, err := do(w, job.i)
				recs[w].op(class+suffix, job.due, time.Now(), err, nil)
				recs[w].lat["gen_late"+suffix] = append(recs[w].lat["gen_late"+suffix], float64(sent.Sub(job.due).Nanoseconds())/1e6)
			}
		}(w)
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		queue <- olJob{i, due}
	}
	close(queue)
	wg.Wait()
	for w := range recs {
		rec.merge(recs[w])
		backlog += left[w]
	}
	return backlog, time.Since(start)
}
