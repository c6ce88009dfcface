// Package sched is the repo's one bounded fan-out: it runs a batch of
// independent jobs (simulation runs, sweep cells, verification batteries)
// on a fixed number of goroutines, while keeping every observable output
// deterministic.
//
// Determinism comes from the job-index contract: jobs are named 0..n-1,
// callers write job i's result into slot i of a pre-sized slice, and Do
// reports the error of the lowest-numbered failed job. Which worker runs
// which job — and in what order — varies run to run; nothing the caller
// can observe does.
//
// Workers claim jobs from one shared atomic cursor, in index order. The
// batches here are tens to hundreds of jobs of milliseconds to seconds
// each, so the cursor is never contended, and a slow job holds up only
// the worker running it: the others keep claiming the rest.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cppcache/internal/span"
)

// Workers normalises a worker-count flag: values <= 0 mean "one per
// available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(job) for every job in [0, n) on the given number of workers
// (normalised via Workers; capped at n) and returns the error of the
// lowest-numbered job that failed, or nil.
//
// With a non-nil parent, every job runs under a child span of parent
// named name(job), carrying the job index and the worker, in
// [0, workers), that ran it; a failed job records its error as a span
// attribute. A nil parent records nothing, and name may then be nil.
func Do(n, workers int, parent *span.Span, name func(int) string, fn func(job int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(Workers(workers), n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				if parent == nil {
					errs[j] = fn(j)
					continue
				}
				s := parent.StartChild(name(j), span.Int("job", int64(j)), span.Int("worker", int64(w)))
				if errs[j] = fn(j); errs[j] != nil {
					s.SetAttrs(span.String("error", errs[j].Error()))
				}
				s.End()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
