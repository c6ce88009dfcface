package sched

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 257
			var ran [n]int32
			err := Do(n, workers, nil, nil, func(j int) error {
				atomic.AddInt32(&ran[j], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			for j, c := range ran {
				if c != 1 {
					t.Fatalf("job %d ran %d times", j, c)
				}
			}
		})
	}
}

func TestDoZeroJobs(t *testing.T) {
	if err := Do(0, 4, nil, nil, func(int) error {
		t.Fatal("fn called for empty batch")
		return nil
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
}

// TestDoDeterministicError: with many failing jobs finishing in scrambled
// order, Do always reports the lowest-numbered failure.
func TestDoDeterministicError(t *testing.T) {
	errOf := func(j int) error { return fmt.Errorf("job %d failed", j) }
	for trial := 0; trial < 20; trial++ {
		err := Do(64, 8, nil, nil, func(j int) error {
			if j%7 == 3 { // jobs 3, 10, 17, ...
				return errOf(j)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: err = %v, want job 3's error", trial, err)
		}
	}
}

// TestDoStealing forces one worker's range to be slow so the others must
// steal from it to finish the batch.
func TestDoStealing(t *testing.T) {
	const n, workers = 64, 4
	var ran int32
	gate := make(chan struct{})
	err := Do(n, workers, nil, nil, func(j int) error {
		if j == 0 {
			// Worker owning job 0 stalls until every other job finished:
			// only stealing lets the rest of its initial range complete.
			<-gate
		}
		if atomic.AddInt32(&ran, 1) == n-1 {
			close(gate)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d jobs", ran, n)
	}
}

func TestWorkersNormalisation(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatalf("non-positive worker counts must normalise to >= 1")
	}
}

func BenchmarkDoOverhead(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sink atomic.Int64
				_ = Do(64, workers, nil, nil, func(j int) error {
					sink.Add(int64(j))
					return nil
				})
			}
		})
	}
}
