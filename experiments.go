package cppcache

import (
	"cppcache/internal/experiments"
	"cppcache/internal/span"
	"cppcache/internal/stats"
)

// Table is a named grid of values: rows are benchmarks, columns are
// configurations or metrics, exactly as the paper's figures present them.
type Table = stats.Table

// Suite caches simulation results across figures so the experiments that
// share runs (Figures 10-15) simulate each benchmark x configuration pair
// only once. A zero SuiteOptions runs all 14 benchmarks at the default
// scale across all available CPUs.
type Suite struct{ s *experiments.Suite }

// SuiteOptions configures a Suite.
type SuiteOptions struct {
	Scale      int        // workload scale (0 = default, 4)
	Benchmarks []string   // nil = all 14
	Workers    int        // 0 = GOMAXPROCS
	Trace      *span.Span // optional parent span; each simulation run becomes a child span
}

// NewSuite builds an experiment suite.
func NewSuite(opt SuiteOptions) *Suite {
	return &Suite{s: experiments.NewSuite(experiments.Options{
		Scale:      opt.Scale,
		Benchmarks: opt.Benchmarks,
		Workers:    opt.Workers,
		Trace:      opt.Trace,
	})}
}

// Figure3 reproduces the value-compressibility study: the fraction of
// dynamically accessed values that are small, pointer-like, or
// incompressible (paper average: 59% compressible).
func (s *Suite) Figure3() (*Table, error) { return s.s.Compressibility() }

// Figure10 reproduces the memory-traffic comparison, normalised to BC
// (paper averages: BCC 0.60, BCP 1.80, CPP 0.90).
func (s *Suite) Figure10() (*Table, error) { return s.s.MemoryTraffic() }

// Figure11 reproduces the execution-time comparison, normalised to BC
// (paper: CPP 7% faster than BC, 2% faster than HAC on average).
func (s *Suite) Figure11() (*Table, error) { return s.s.ExecutionTime() }

// Figure12 reproduces the L1 miss comparison (paper: CPP reduces the L1
// miss rate 14% on average).
func (s *Suite) Figure12() (*Table, error) { return s.s.CacheMisses(1) }

// Figure13 reproduces the L2 miss comparison.
func (s *Suite) Figure13() (*Table, error) { return s.s.CacheMisses(2) }

// Figure14 reproduces the miss-importance study: the fraction of
// instructions directly dependent on cache misses, estimated via Amdahl's
// law from a halved-miss-penalty run (paper: CPP reduces the importance of
// misses relative to BC and HAC).
func (s *Suite) Figure14() (*Table, error) { return s.s.MissImportance() }

// Figure15 reproduces the ready-queue study: the average ready-queue
// length during cycles with an outstanding miss, CPP vs HAC (paper:
// improvements up to 78%).
func (s *Suite) Figure15() (*Table, error) { return s.s.ReadyQueue() }

// InstructionMix is a supporting table: the opcode mix of every trace.
func (s *Suite) InstructionMix() (*Table, error) { return s.s.InstructionMix() }

func baselineTable() string {
	return experiments.BaselineTable()
}

// SchemeTraffic runs the compressor-zoo comparison — one functional BCC
// run per workload x registered compression scheme, as off-chip traffic
// ratios to the uncompressed BC baseline, with a geomean row. Rows fan
// out across workers (0 = GOMAXPROCS); the table is identical for any
// worker count.
func SchemeTraffic(scale, workers int) (*Table, error) {
	return experiments.SchemeTraffic(scale, workers)
}

// RelatedWorkTime compares CPP against the related-work designs the paper
// discusses in §5 — Jouppi's victim cache (VC) and the line-level
// compression cache (LCC) — on execution time, normalised to BC.
func (s *Suite) RelatedWorkTime() (*Table, error) { return s.s.RelatedWork("time") }

// RelatedWorkTraffic is RelatedWorkTime for off-chip traffic.
func (s *Suite) RelatedWorkTraffic() (*Table, error) { return s.s.RelatedWork("traffic") }

// Energy estimates each configuration's dynamic energy (linear event
// model), normalised to BC.
func (s *Suite) Energy() (*Table, error) { return s.s.Energy() }
