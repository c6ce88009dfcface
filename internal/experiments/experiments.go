// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each exported function produces one figure as a
// stats.Table; cmd/cppbench prints them all and EXPERIMENTS.md records
// paper-vs-measured.
//
// A Suite caches simulation results so that the figures sharing runs
// (10-13, 15 share the full-latency runs; 14 adds halved-latency runs)
// only simulate each benchmark x configuration pair once. Runs are
// independent, so the Suite fans them out across GOMAXPROCS workers.
package experiments

import (
	"fmt"
	"sync"

	"cppcache/internal/compress"
	"cppcache/internal/cpu"
	"cppcache/internal/energy"
	"cppcache/internal/isa"
	"cppcache/internal/memsys"
	"cppcache/internal/sched"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/stats"
	"cppcache/internal/workload"
)

// Options configures a Suite.
type Options struct {
	Scale      int        // workload scale; 0 means workload.DefaultScale
	Benchmarks []string   // nil means all 14
	Workers    int        // 0 means GOMAXPROCS
	Trace      *span.Span // optional parent for per-run spans; nil disables tracing
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = workload.DefaultScale
	}
	if o.Benchmarks == nil {
		o.Benchmarks = workload.Names()
	}
	o.Workers = sched.Workers(o.Workers)
	return o
}

type runKey struct {
	bench  string
	config string
	halved bool
}

// Suite owns the cached results for one experimental setup. Programs come
// from workload.BuildShared, which builds each (workload, scale) once.
type Suite struct {
	opt Options

	mu      sync.Mutex
	results map[runKey]sim.Result
}

// NewSuite builds a Suite with the given options.
func NewSuite(opt Options) *Suite {
	return &Suite{
		opt:     opt.withDefaults(),
		results: map[runKey]sim.Result{},
	}
}

// Options returns the fully defaulted options in use.
func (s *Suite) Options() Options { return s.opt }

// ensure runs (or fetches) the cached result for every requested key,
// fanning independent runs out over the worker pool.
func (s *Suite) ensure(keys []runKey) error {
	var missing []runKey
	s.mu.Lock()
	for _, k := range keys {
		if _, ok := s.results[k]; !ok {
			missing = append(missing, k)
		}
	}
	s.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}

	// Build all needed programs first (deduplicated, serial: builders
	// are cheap relative to simulation and share nothing).
	for _, k := range missing {
		if _, err := workload.BuildShared(k.bench, s.opt.Scale); err != nil {
			return err
		}
	}

	// Fan the missing runs over the scheduler. Results land in the
	// key-indexed map and the reported error is the one of the
	// lowest-numbered failing run, so the outcome is independent of worker
	// count and interleaving. With a trace attached, every run gets a span
	// under it carrying the job and worker attributes.
	name := func(j int) string {
		k := missing[j]
		n := "run " + k.bench + "/" + k.config
		if k.halved {
			n += "/halved"
		}
		return n
	}
	return sched.Do(len(missing), s.opt.Workers, s.opt.Trace, name,
		func(j int) error {
			k := missing[j]
			p, err := workload.BuildShared(k.bench, s.opt.Scale)
			if err != nil {
				return err
			}
			lat := memsys.DefaultLatencies()
			if k.halved {
				lat = lat.Halved()
			}
			r, err := sim.Run(p, k.config, lat, sim.Options{})
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.results[k] = r
			s.mu.Unlock()
			return nil
		})
}

// result fetches one cached run.
func (s *Suite) result(bench, config string, halved bool) (sim.Result, error) {
	k := runKey{bench, config, halved}
	if err := s.ensure([]runKey{k}); err != nil {
		return sim.Result{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[k], nil
}

// allKeys builds the cross product of the suite's benchmarks and the given
// configs.
func (s *Suite) allKeys(configs []string, halved bool) []runKey {
	var keys []runKey
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			keys = append(keys, runKey{b, c, halved})
		}
	}
	return keys
}

// Compressibility reproduces Figure 3: the fraction of dynamically
// accessed (word-level load/store) values that are compressible, split
// into small values and pointers. The paper reports a 59% average.
func (s *Suite) Compressibility() (*stats.Table, error) {
	cols := []string{"small", "pointer", "incompressible"}
	t := stats.NewTable("Figure 3: dynamically accessed value compressibility", s.opt.Benchmarks, cols)
	t.Note = "fraction of word-level accesses; paper average: 59% compressible"
	for _, name := range s.opt.Benchmarks {
		p, err := workload.BuildShared(name, s.opt.Scale)
		if err != nil {
			return nil, err
		}
		var small, ptr, incomp, total float64
		for _, in := range p.Insts() {
			if !in.Op.IsMem() {
				continue
			}
			total++
			switch {
			case compress.IsSmall(in.Value):
				small++
			case compress.IsPointerLike(in.Value, in.Addr):
				ptr++
			default:
				incomp++
			}
		}
		if total > 0 {
			t.Set(name, "small", small/total)
			t.Set(name, "pointer", ptr/total)
			t.Set(name, "incompressible", incomp/total)
		}
	}
	return t, nil
}

// MemoryTraffic reproduces Figure 10: off-chip memory traffic of each
// configuration normalised to BC. Paper averages: BCC ~0.60, BCP ~1.80,
// CPP ~0.90.
func (s *Suite) MemoryTraffic() (*stats.Table, error) {
	configs := sim.Configs()
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: memory traffic", s.opt.Benchmarks, configs)
	t.Note = "L2<->memory bus words, normalised to BC = 1.0"
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			r, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			t.Set(b, c, r.Mem.MemTrafficWords())
		}
	}
	return t.Normalized("BC").WithGeomeanRow(), nil
}

// ExecutionTime reproduces Figure 11: execution time normalised to BC.
// The paper reports CPP ~7% faster than BC on average and ~2% faster than
// HAC.
func (s *Suite) ExecutionTime() (*stats.Table, error) {
	configs := sim.Configs()
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 11: execution time", s.opt.Benchmarks, configs)
	t.Note = "cycles, normalised to BC = 1.0"
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			r, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			t.Set(b, c, float64(r.CPU.Cycles))
		}
	}
	return t.Normalized("BC").WithGeomeanRow(), nil
}

// CacheMisses reproduces Figures 12 (level 1) and 13 (level 2): demand
// misses normalised to BC. Prefetch-buffer hits are not misses (§4.4).
func (s *Suite) CacheMisses(level int) (*stats.Table, error) {
	if level != 1 && level != 2 {
		return nil, fmt.Errorf("experiments: cache level must be 1 or 2, got %d", level)
	}
	configs := sim.Configs()
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Figure %d: L%d cache misses", 11+level, level), s.opt.Benchmarks, configs)
	t.Note = "demand misses, normalised to BC = 1.0"
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			r, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			ls := r.Mem.L1
			if level == 2 {
				ls = r.Mem.L2
			}
			t.Set(b, c, float64(ls.Misses))
		}
	}
	return t.Normalized("BC").WithGeomeanRow(), nil
}

// MissImportance reproduces Figure 14: the fraction of instructions
// directly dependent on cache misses, estimated through Amdahl's law by
// halving the miss penalty (S_enhanced = 2) and measuring the overall
// speedup:
//
//	Fraction = S_e * (1 - 1/S_overall) / (S_e - 1)
func (s *Suite) MissImportance() (*stats.Table, error) {
	configs := sim.Configs()
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	if err := s.ensure(s.allKeys(configs, true)); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 14: importance of cache misses", s.opt.Benchmarks, configs)
	t.Note = "estimated fraction of directly dependent instructions (Amdahl, S_enhanced=2)"
	const se = 2.0
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			full, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			half, err := s.result(b, c, true)
			if err != nil {
				return nil, err
			}
			sOverall := float64(full.CPU.Cycles) / float64(half.CPU.Cycles)
			frac := se * (1 - 1/sOverall) / (se - 1)
			t.Set(b, c, frac)
		}
	}
	return t.WithGeomeanRow(), nil
}

// ReadyQueue reproduces Figure 15: the average ready-queue length during
// cycles with at least one outstanding miss, for CPP relative to HAC. The
// paper reports improvements of up to 78% on the benchmarks with
// significant importance reduction.
func (s *Suite) ReadyQueue() (*stats.Table, error) {
	configs := []string{"HAC", "CPP"}
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	cols := []string{"HAC", "CPP", "increase"}
	t := stats.NewTable("Figure 15: avg ready-queue length in miss cycles", s.opt.Benchmarks, cols)
	t.Note = "queue length during miss cycles; increase = CPP/HAC - 1"
	for _, b := range s.opt.Benchmarks {
		hac, err := s.result(b, "HAC", false)
		if err != nil {
			return nil, err
		}
		cpp, err := s.result(b, "CPP", false)
		if err != nil {
			return nil, err
		}
		qh := hac.CPU.AvgReadyQueueInMiss()
		qc := cpp.CPU.AvgReadyQueueInMiss()
		t.Set(b, "HAC", qh)
		t.Set(b, "CPP", qc)
		if qh > 0 {
			t.Set(b, "increase", qc/qh-1)
		}
	}
	return t, nil
}

// InstructionMix is a supporting table: the opcode mix of each trace.
func (s *Suite) InstructionMix() (*stats.Table, error) {
	cols := []string{"load", "store", "branch", "alu", "fp", "total(k)"}
	t := stats.NewTable("Trace instruction mix", s.opt.Benchmarks, cols)
	for _, name := range s.opt.Benchmarks {
		p, err := workload.BuildShared(name, s.opt.Scale)
		if err != nil {
			return nil, err
		}
		var m isa.Mix
		for _, in := range p.Insts() {
			m.Add(in)
		}
		t.Set(name, "load", m.Frac(isa.OpLoad))
		t.Set(name, "store", m.Frac(isa.OpStore))
		t.Set(name, "branch", m.Frac(isa.OpBranch))
		t.Set(name, "alu", m.Frac(isa.OpALU)+m.Frac(isa.OpMul)+m.Frac(isa.OpDiv))
		t.Set(name, "fp", m.Frac(isa.OpFALU)+m.Frac(isa.OpFMul)+m.Frac(isa.OpFDiv))
		t.Set(name, "total(k)", float64(m.Total)/1000)
	}
	return t, nil
}

// BaselineTable renders Figure 9, the experimental setup, as text.
func BaselineTable() string {
	p, lat := cpu.DefaultParams(), memsys.DefaultLatencies()
	return fmt.Sprintf(`Figure 9: baseline experimental setup
  Issue width              %d issue, out-of-order
  IFQ size                 %d instr.
  Branch predictor         bimod, %d entries
  LD/ST queue              %d entries
  Func. units              %d ALUs, %d Mult/Div, %d mem ports, %d FALU, %d FMult/FDiv
  I-cache hit latency      %d cycle(s)
  I-cache miss latency     %d cycles
  L1 D-cache hit latency   %d cycle(s)
  L1 D-cache miss latency  %d cycles
  Memory access latency    %d cycles (L2 miss latency)
  L1 D-cache               8K direct-mapped, 64 B lines
  L2 cache                 64K 2-way, 128 B lines
`,
		p.IssueWidth, p.IFQSize, 1<<p.BranchPredBits, p.LSQSize,
		p.IntALU, p.IntMult, p.MemPorts, p.FPALU, p.FPMult,
		p.ICacheHitLat, p.ICacheMissLat,
		lat.L1Hit, lat.L2Hit, lat.Mem)
}

// relatedConfigs is the comparison set for the related-work studies: the
// baseline, the two prior designs the paper discusses in §5 (victim cache
// and line-level compression cache), conventional prefetching, and CPP.
func relatedConfigs() []string { return []string{"BC", "VC", "LCC", "BCP", "CPP"} }

// RelatedWork produces the §5 comparison the paper argues but does not
// measure: CPP against Jouppi's victim cache (VC) and the line-level
// compression cache (LCC). metric is "time" (cycles) or "traffic"
// (off-chip words); both are normalised to BC.
func (s *Suite) RelatedWork(metric string) (*stats.Table, error) {
	configs := relatedConfigs()
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	var title, note string
	switch metric {
	case "time":
		title, note = "Related work: execution time", "cycles, normalised to BC = 1.0"
	case "traffic":
		title, note = "Related work: memory traffic", "off-chip words, normalised to BC = 1.0"
	default:
		return nil, fmt.Errorf("experiments: unknown related-work metric %q (want time or traffic)", metric)
	}
	t := stats.NewTable(title, s.opt.Benchmarks, configs)
	t.Note = note
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			r, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			if metric == "time" {
				t.Set(b, c, float64(r.CPU.Cycles))
			} else {
				t.Set(b, c, r.Mem.MemTrafficWords())
			}
		}
	}
	return t.Normalized("BC").WithGeomeanRow(), nil
}

// Energy estimates each configuration's dynamic energy (linear event
// model, see internal/energy), normalised to BC. Compression caches were
// historically motivated by power (§5); this quantifies the comparison
// for all designs including the related-work ones.
func (s *Suite) Energy() (*stats.Table, error) {
	configs := append(append([]string(nil), sim.Configs()...), "VC", "LCC")
	if err := s.ensure(s.allKeys(configs, false)); err != nil {
		return nil, err
	}
	t := stats.NewTable("Energy estimate", s.opt.Benchmarks, configs)
	t.Note = "dynamic energy, linear event model, normalised to BC = 1.0"
	p := energy.Default()
	for _, b := range s.opt.Benchmarks {
		for _, c := range configs {
			r, err := s.result(b, c, false)
			if err != nil {
				return nil, err
			}
			comp, flags := energy.ForConfig(c)
			t.Set(b, c, energy.Estimate(&r.Mem, p, comp, flags).TotalNJ)
		}
	}
	return t.Normalized("BC").WithGeomeanRow(), nil
}
