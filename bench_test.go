package cppcache

// Go benchmarks for what perfbench (the repository benchmark, run with
// python3 perfbench/run.py) does not measure: the ablations DESIGN.md
// calls out, the word codec, and one CPP run with and without an
// observability recorder attached.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// benchScale keeps the ablation runs fast; cmd/cppbench uses the full
// default scale.
const benchScale = 1

// warmProgram builds the benchmark's trace once, outside the timed
// region, so the ablations measure simulation rather than workload
// construction. Programs are shared via the workload build cache, so the
// runs inside the timed loops reuse this instance.
func warmProgram(b *testing.B, name string) {
	b.Helper()
	if _, err := BuildBenchmark(name, benchScale); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// BenchmarkAblationMask sweeps the affiliated-line mask: 0x1 is the
// paper's next-line pairing; larger masks pair more distant lines
// (stride-prefetch analogues).
func BenchmarkAblationMask(b *testing.B) {
	for _, mask := range []uint32{0x1, 0x2, 0x4} {
		b.Run(fmt.Sprintf("mask_%#x", mask), func(b *testing.B) {
			warmProgram(b, "olden.treeadd")
			for i := 0; i < b.N; i++ {
				res, _, err := Run(context.Background(), "olden.treeadd", CPPVariant(mask, true), Options{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Cycles), "cycles")
					b.ReportMetric(float64(res.AffiliatedHitsL1), "aff_hits")
				}
			}
		})
	}
}

// BenchmarkAblationVictim quantifies the victim-placement path (§3.3):
// salvaging evicted lines into their affiliated place.
func BenchmarkAblationVictim(b *testing.B) {
	for _, vp := range []bool{true, false} {
		b.Run(fmt.Sprintf("victimPlacement_%v", vp), func(b *testing.B) {
			warmProgram(b, "spec2000.300.twolf")
			for i := 0; i < b.N; i++ {
				res, _, err := Run(context.Background(), "spec2000.300.twolf", CPPVariant(0x1, vp), Options{Scale: benchScale})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(res.Cycles), "cycles")
					b.ReportMetric(float64(res.L1Misses), "l1_misses")
				}
			}
		})
	}
}

// BenchmarkAblationWidth sweeps the compressed-word width: what fraction
// of dynamically accessed values would be compressible if the scheme kept
// 7, 15 (the paper's choice) or 23 low-order bits.
func BenchmarkAblationWidth(b *testing.B) {
	for _, width := range []int{7, 15, 23} {
		b.Run(fmt.Sprintf("payload_%d", width), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			vals := make([]uint32, 4096)
			addrs := make([]uint32, 4096)
			for i := range vals {
				// A realistic mix: thirds of small values, pointers
				// and random words.
				addrs[i] = rng.Uint32() &^ 3
				switch i % 3 {
				case 0:
					vals[i] = uint32(rng.Intn(1 << 14))
				case 1:
					vals[i] = addrs[i]&^0x7FFF | uint32(rng.Intn(1<<15))&^3
				default:
					vals[i] = rng.Uint32()
				}
			}
			comp := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if CompressibleWordWidth(vals[i%4096], addrs[i%4096], width) {
					comp++
				}
			}
			b.ReportMetric(float64(comp)/float64(b.N), "compressible_frac")
		})
	}
}

// BenchmarkCompressionKernel measures the raw software compressor.
func BenchmarkCompressionKernel(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint32, 1024)
	addrs := make([]uint32, 1024)
	for i := range vals {
		vals[i] = rng.Uint32()
		addrs[i] = rng.Uint32() &^ 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, ok := CompressWord(vals[i%1024], addrs[i%1024]); ok {
			_ = DecompressWord(c, addrs[i%1024])
		}
	}
}

// BenchmarkSimulatorThroughput measures one CPP run of olden.health at
// scale 1 with no recorder attached, allocations included;
// BenchmarkSimulatorThroughputObserved is its twin with a recorder, so the
// pair puts a number on what observability costs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	p, err := BuildBenchmark("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunProgram(context.Background(), p, CPP, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Len()), "insts/run")
}

// BenchmarkSimulatorThroughputObserved is the same run with the full
// observability stack attached (interval metrics + event trace), putting a
// number on what turning observability ON costs.
func BenchmarkSimulatorThroughputObserved(b *testing.B) {
	b.ReportAllocs()
	p, err := BuildBenchmark("olden.health", 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Observe: &ObserveOptions{IntervalCycles: 10000, Trace: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ob, err := RunProgram(context.Background(), p, CPP, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(ob.Intervals()), "intervals")
		}
	}
	b.ReportMetric(float64(p.Len()), "insts/run")
}
