package cppcache

// Benchmarks of the shared trace pre-decode's column scan and of the run
// scheduler's scaling. perfbench times the decode itself (trace.decode_s)
// and the suite's wall time at 1 and 2 workers is pinned in
// BENCH_perfbench.json; these isolate the two mechanisms.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cppcache/internal/sched"
	"cppcache/internal/workload"
)

// BenchmarkReplayPredecoded scans the shared struct-of-arrays columns the
// core fetches from.
func BenchmarkReplayPredecoded(b *testing.B) {
	b.ReportAllocs()
	p, err := workload.BuildShared("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	d := p.Decoded()
	ops, addrs := d.Ops(), d.Addrs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for j := range ops {
			sink += uint64(addrs[j]) + uint64(ops[j])
		}
	}
	if sink == 0 {
		b.Fatal("degenerate trace")
	}
	b.ReportMetric(float64(d.Len()), "insts/op")
}

// BenchmarkSchedulerScaling fans a fixed batch of independent BC runs
// over the run scheduler at 1, 2 and NumCPU workers. On a
// multi-core machine the per-op time should drop near-linearly with the
// worker count; on one core it measures the scheduler's overhead.
func BenchmarkSchedulerScaling(b *testing.B) {
	p, err := BuildBenchmark("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the shared decode outside the timed region.
	if _, _, err := RunProgram(context.Background(), p, BC, Options{Scale: 1}); err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	for _, w := range []int{2, runtime.NumCPU()} {
		if w > counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	const runs = 4
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := sched.Do(runs, w, nil, nil,
					func(int) error {
						_, _, err := RunProgram(context.Background(), p, BC, Options{Scale: 1})
						return err
					})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(runs, "runs/op")
		})
	}
}
