// Package cppcache is a library-grade reproduction of "Enabling Partial
// Cache Line Prefetching Through Data Compression" (Youtao Zhang and Rajiv
// Gupta, ICPP 2003).
//
// The paper's contribution — the CPP cache, which stores 32-bit words in a
// 16-bit compressed form when possible and uses the freed half-slots to
// prefetch the compressible words of the next ("affiliated") cache line,
// with no prefetch buffers and no extra memory bandwidth — is implemented
// in internal/core, together with every substrate the evaluation needs: a
// value compressor (internal/compress), conventional and prefetching cache
// hierarchies (internal/hier), a cycle-stepped 4-issue out-of-order core
// standing in for SimpleScalar (internal/cpu), and trace generators for
// the paper's 14 Olden/SPECint benchmarks (internal/workload).
//
// This package is the public face: run one benchmark on one cache
// configuration (Run), build custom traces (NewTraceBuilder), use the
// value-compression scheme directly (CompressWord and friends), and
// regenerate every figure of the paper's evaluation (Figure3 through
// Figure15 in experiments.go).
package cppcache

import (
	"context"
	"fmt"
	"strings"

	"cppcache/internal/compress"
	"cppcache/internal/core"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/workload"
)

// CacheConfig names a cache configuration: one of the paper's five
// (§4.1), a related-work one (VC, LCC) or a CPP ablation (CPPVariant).
type CacheConfig string

// The five configurations compared by the paper.
const (
	// BC is the baseline: 8K direct-mapped L1 (64 B lines), 64K 2-way
	// L2 (128 B lines).
	BC CacheConfig = "BC"
	// BCC is BC plus value compression on off-chip transfers; identical
	// timing, less traffic.
	BCC CacheConfig = "BCC"
	// HAC doubles the associativity at both levels.
	HAC CacheConfig = "HAC"
	// BCP is BC plus next-line prefetch-on-miss with 8-entry (L1) and
	// 32-entry (L2) prefetch buffers.
	BCP CacheConfig = "BCP"
	// CPP is the paper's contribution: compression-enabled partial
	// cache line prefetching.
	CPP CacheConfig = "CPP"

	// VC is a related-work comparison beyond the paper's five: BC plus
	// an 8-entry victim cache (Jouppi, the paper's reference [3]).
	VC CacheConfig = "VC"
	// LCC is the line-level compression cache of the paper's related
	// work ([6]): two conflicting lines share a frame only when both are
	// fully compressible; no partial-line prefetching.
	LCC CacheConfig = "LCC"
)

// Configs returns all configurations in presentation order.
func Configs() []CacheConfig {
	out := make([]CacheConfig, 0, 5)
	for _, c := range sim.Configs() {
		out = append(out, CacheConfig(c))
	}
	return out
}

// ExtraConfigs returns the related-work configurations implemented beyond
// the paper's five (VC and LCC).
func ExtraConfigs() []CacheConfig {
	out := make([]CacheConfig, 0, 2)
	for _, c := range sim.ExtraConfigs() {
		out = append(out, CacheConfig(c))
	}
	return out
}

// Benchmarks returns the names of the 14 workloads (olden.*, spec95.*,
// spec2000.*).
func Benchmarks() []string { return workload.Names() }

// ResolveBenchmark maps name to a registered workload: an exact match
// wins; otherwise a unique dot-suffix match ("mst" -> "olden.mst") is
// accepted. CLI tools and the observatory service share this resolution.
func ResolveBenchmark(name string) (string, error) {
	var candidates []string
	for _, n := range Benchmarks() {
		if n == name {
			return n, nil
		}
		if strings.HasSuffix(n, "."+name) {
			candidates = append(candidates, n)
		}
	}
	switch len(candidates) {
	case 1:
		return candidates[0], nil
	case 0:
		return "", fmt.Errorf("unknown workload %q", name)
	default:
		return "", fmt.Errorf("ambiguous workload %q: matches %s", name, strings.Join(candidates, ", "))
	}
}

// KnownConfig reports whether name (case-insensitively) is a recognised
// cache configuration, returning its canonical form.
func KnownConfig(name string) (CacheConfig, bool) {
	cfg := CacheConfig(strings.ToUpper(name))
	for _, c := range append(Configs(), ExtraConfigs()...) {
		if c == cfg {
			return cfg, true
		}
	}
	return cfg, false
}

// Compressors returns the registered line-compression schemes in
// registration order: "paper" (the reproduced scheme, always the
// default), then the comparison zoo ("cpack", "fpc", "bdi").
func Compressors() []string { return compress.Schemes() }

// DefaultCompressor returns the name of the paper's scheme, the default
// everywhere a compressor is selectable.
func DefaultCompressor() string { return compress.Default().Name() }

// KnownCompressor reports whether name (case-insensitively, "" meaning
// the default) is a registered compression scheme, returning its
// canonical lower-case form.
func KnownCompressor(name string) (string, bool) {
	c, err := compress.Get(name)
	if err != nil {
		return strings.ToLower(strings.TrimSpace(name)), false
	}
	return c.Name(), true
}

// ValidateCompressor reports whether the scheme can back the given cache
// configuration. Every configuration accepts the default scheme; only
// the configurations that compress bus transfers (BCC, LCC) accept a
// non-default one.
func ValidateCompressor(cfg CacheConfig, scheme string) error {
	return sim.ValidateCompressor(string(cfg), scheme)
}

// BenchmarkInfo describes one workload.
type BenchmarkInfo struct {
	Name         string
	Suite        string
	Description  string
	Substitution string // what replaced the original binary/input
}

// BenchmarkInfos returns metadata for every workload.
func BenchmarkInfos() []BenchmarkInfo {
	all := workload.All()
	out := make([]BenchmarkInfo, len(all))
	for i, bm := range all {
		out[i] = BenchmarkInfo{bm.Name, bm.Suite, bm.Description, bm.Substitution}
	}
	return out
}

// Options configure a simulation run.
type Options struct {
	// Scale multiplies the workload's compute phase. 0 means the
	// experiment default (4).
	Scale int
	// HalveMissPenalty halves the L2-hit and memory latencies, as the
	// miss-importance methodology of Figure 14 requires.
	HalveMissPenalty bool
	// FunctionalOnly skips the pipeline model: misses and traffic are
	// still exact, cycle counts are zero. Roughly 10x faster.
	FunctionalOnly bool
	// Compressor selects the line-compression scheme for configurations
	// that compress bus transfers (BCC, LCC). "" means the paper's
	// scheme; see Compressors for the registered zoo. Selecting a
	// non-default scheme on any other configuration is an error.
	Compressor string
	// Observe, when non-nil, attaches the observability layer (interval
	// metrics, event tracing, latency histograms, attribution) and the
	// run returns its Observation. nil attaches no recorder and returns a
	// nil Observation. Attaching a recorder never changes results.
	Observe *ObserveOptions
	// Span, when set, parents the run's lifecycle spans (workload.build
	// with a decode cache hit/miss event, then the sim.* stage spans) on
	// the caller's trace. nil traces nothing, at the cost of one branch
	// per stage boundary (the span package's nil-receiver contract).
	Span *span.Span
}

// Result reports one run.
type Result struct {
	Benchmark string
	Config    CacheConfig
	// Compressor is the line-compression scheme the run used ("paper"
	// unless a zoo scheme was selected on a compressing configuration).
	Compressor string

	Cycles       int64
	Instructions int64
	IPC          float64

	L1Accesses int64
	L1Misses   int64
	L2Accesses int64
	L2Misses   int64

	// MemTrafficWords is the total off-chip traffic in 32-bit words
	// (compressed transfers count fractionally).
	MemTrafficWords float64

	// CPP-specific counters (zero for other configurations).
	AffiliatedHitsL1   int64
	AffiliatedHitsL2   int64
	Promotions         int64
	AffWordsPrefetched int64

	// BCP-specific counters.
	PrefetchBufferHitsL1 int64
	PrefetchBufferHitsL2 int64

	// Ready-queue instrumentation (Figure 15).
	AvgReadyQueueInMiss float64

	Mispredicts  int64
	ICacheMisses int64
}

// L1MissRate returns L1Misses / L1Accesses.
func (r Result) L1MissRate() float64 {
	if r.L1Accesses == 0 {
		return 0
	}
	return float64(r.L1Misses) / float64(r.L1Accesses)
}

// L2MissRate returns L2Misses / L2Accesses.
func (r Result) L2MissRate() float64 {
	if r.L2Accesses == 0 {
		return 0
	}
	return float64(r.L2Misses) / float64(r.L2Accesses)
}

func fromSim(r sim.Result) Result {
	base, scheme := sim.SplitConfig(r.Config)
	if scheme == "" {
		scheme = compress.Default().Name()
	}
	return Result{
		Benchmark:            r.Benchmark,
		Config:               CacheConfig(base),
		Compressor:           scheme,
		Cycles:               r.CPU.Cycles,
		Instructions:         r.CPU.Instructions,
		IPC:                  r.CPU.IPC(),
		L1Accesses:           r.Mem.L1.Accesses,
		L1Misses:             r.Mem.L1.Misses,
		L2Accesses:           r.Mem.L2.Accesses,
		L2Misses:             r.Mem.L2.Misses,
		MemTrafficWords:      r.Mem.MemTrafficWords(),
		AffiliatedHitsL1:     r.Mem.AffHitsL1,
		AffiliatedHitsL2:     r.Mem.AffHitsL2,
		Promotions:           r.Mem.Promotions,
		AffWordsPrefetched:   r.Mem.AffWordsPrefetchedL1 + r.Mem.AffWordsPrefetchedL2,
		PrefetchBufferHitsL1: r.Mem.PfBufHitsL1,
		PrefetchBufferHitsL2: r.Mem.PfBufHitsL2,
		AvgReadyQueueInMiss:  r.CPU.AvgReadyQueueInMiss(),
		Mispredicts:          r.CPU.Mispredicts,
		ICacheMisses:         r.CPU.ICacheMisses,
	}
}

// Run simulates the named benchmark on the given cache configuration.
// The simulation loops poll ctx cooperatively (every few thousand
// cycles/ops) and abandon the run with an error wrapping ctx.Err() when
// it is canceled or its deadline expires. The Observation is nil unless
// opts.Observe is set.
func Run(ctx context.Context, benchmark string, cfg CacheConfig, opts Options) (Result, *Observation, error) {
	scale := opts.Scale
	if scale == 0 {
		scale = workload.DefaultScale
	}
	build := opts.Span.StartChild("workload.build",
		span.String("benchmark", benchmark), span.Int("scale", int64(scale)))
	p, hit, err := workload.BuildSharedCached(benchmark, scale)
	if err != nil {
		build.End()
		return Result{}, nil, err
	}
	build.Event("decode.cache", span.Bool("hit", hit))
	build.End()
	return RunProgram(ctx, &Program{p: p}, cfg, opts)
}

// RunProgram is Run on a custom program (built with NewTraceBuilder).
func RunProgram(ctx context.Context, p *Program, cfg CacheConfig, opts Options) (Result, *Observation, error) {
	lat := memsys.DefaultLatencies()
	if opts.HalveMissPenalty {
		lat = lat.Halved()
	}
	config, err := schemeQualified(cfg, opts)
	if err != nil {
		return Result{}, nil, err
	}
	so := sim.Options{Functional: opts.FunctionalOnly, Ctx: ctx, Span: opts.Span}
	var ob *Observation
	if oo := opts.Observe; oo != nil {
		so.Recorder = obs.New(obs.Config{
			Interval:   oo.IntervalCycles,
			Trace:      oo.Trace,
			TraceCap:   oo.TraceCap,
			Attr:       oo.Attr,
			OnSnapshot: oo.OnSnapshot,
		})
		ob = &Observation{rec: so.Recorder}
	}
	r, err := sim.Run(p.p, config, lat, so)
	if err != nil {
		return Result{}, nil, err
	}
	return fromSim(r), ob, nil
}

// schemeQualified validates Options.Compressor against cfg and composes
// the scheme-qualified config name the simulator understands. The default
// scheme yields the bare name, keeping default runs byte-identical.
func schemeQualified(cfg CacheConfig, opts Options) (string, error) {
	if opts.Compressor == "" {
		return string(cfg), nil
	}
	if err := sim.ValidateCompressor(string(cfg), opts.Compressor); err != nil {
		return "", err
	}
	return sim.WithCompressor(string(cfg), opts.Compressor), nil
}

// ObserveOptions configure the observability layer of an observed run.
type ObserveOptions struct {
	// IntervalCycles is the metrics snapshot cadence in simulated cycles
	// (memory ops in functional mode). <= 0 disables interval metrics.
	IntervalCycles int64
	// Trace enables the structured event trace (ring-buffered; the
	// newest events win when the ring fills).
	Trace bool
	// TraceCap overrides the event-ring capacity (0 = 65536 events).
	TraceCap int
	// Attr enables the PC/region attribution profiler: L1 misses,
	// compression-failure fill words and affiliated-prefetch hits are
	// attributed to instruction PCs and 4 KiB data-address regions.
	Attr bool
	// OnSnapshot, when set, receives each interval snapshot synchronously
	// as it is taken, while the run is still in flight. The callback runs
	// on the simulation goroutine; consumers that share the snapshot with
	// other goroutines must do their own locking. The callback owns the
	// series: the Observation then keeps none (Intervals is 0, and
	// Snapshots, MetricsCSV and MetricsJSON are empty).
	OnSnapshot func(obs.Snapshot)
}

// Observation wraps the recorder of a completed observed run and renders
// its three products: interval metrics, the event trace and the latency
// histograms.
type Observation struct {
	rec *obs.Recorder
}

// MetricsCSV renders the interval metric series as CSV with a header row.
// Counters are per-interval deltas; each column sums to the run total.
func (o *Observation) MetricsCSV() string { return o.rec.MetricsCSV() }

// MetricsJSON renders the interval metric series as a JSON array.
func (o *Observation) MetricsJSON() ([]byte, error) { return o.rec.MetricsJSON() }

// ChromeTrace renders the retained events in Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto (1 simulated cycle = 1 us).
func (o *Observation) ChromeTrace() []byte { return o.rec.ChromeTrace() }

// TraceDropped reports how many events were dropped because the ring
// buffer was full.
func (o *Observation) TraceDropped() int64 { return o.rec.TraceDropped() }

// HistogramsText renders the latency histograms for terminal output.
func (o *Observation) HistogramsText() string { return o.rec.HistogramsText() }

// Intervals returns how many metric snapshots were taken.
func (o *Observation) Intervals() int { return len(o.rec.Snapshots()) }

// Snapshots returns the interval metric series (per-interval deltas).
func (o *Observation) Snapshots() []obs.Snapshot { return o.rec.Snapshots() }

// AttrEnabled reports whether the attribution profiler collected.
func (o *Observation) AttrEnabled() bool { return o.rec.AttrEnabled() }

// AttrText renders the attribution profile as top-N tables (per kind,
// per-PC and per-region sections).
func (o *Observation) AttrText(topN int) string { return o.rec.AttrText(topN) }

// AttrCollapsed renders the attribution profile in collapsed-stack format
// for flame-graph tooling.
func (o *Observation) AttrCollapsed() string { return o.rec.AttrCollapsed() }

// AttrTotal returns the total attributed count of one kind.
func (o *Observation) AttrTotal(kind obs.AttrKind) int64 { return o.rec.AttrTotal(kind) }

// NewSystem builds a standalone cache hierarchy of the named configuration
// over a fresh main memory, for word-level experimentation: Read and
// Write return the access latency in cycles along with the data.
func NewSystem(cfg CacheConfig) (System, error) {
	m := mem.New()
	sys, err := sim.NewSystem(string(cfg), m, memsys.DefaultLatencies())
	if err != nil {
		return nil, err
	}
	return &system{sys: sys}, nil
}

// System is a standalone two-level cache hierarchy over main memory.
type System interface {
	// Read loads the 32-bit word at the word-aligned address, returning
	// the value and the access latency in cycles.
	Read(addr uint32) (value uint32, latencyCycles int)
	// Write stores a word, returning the access latency in cycles.
	Write(addr uint32, value uint32) (latencyCycles int)
	// Name returns the configuration name.
	Name() string
	// Snapshot returns the accumulated statistics.
	Snapshot() Result
}

type system struct{ sys memsys.System }

func (s *system) Read(addr uint32) (uint32, int) { return s.sys.Read(addr) }
func (s *system) Write(addr, v uint32) int       { return s.sys.Write(addr, v) }
func (s *system) Name() string                   { return s.sys.Name() }
func (s *system) Snapshot() Result {
	return fromSim(sim.Result{Config: s.sys.Name(), Mem: *s.sys.Stats()})
}

// CPPDetails returns the CPP design parameters in force for the given
// standalone system, or an error for other configurations.
func CPPDetails(s System) (mask uint32, victimPlacement bool, err error) {
	sys, ok := s.(*system)
	if !ok {
		return 0, false, fmt.Errorf("cppcache: not a system built by NewSystem")
	}
	h, ok := sys.sys.(*core.Hierarchy)
	if !ok {
		return 0, false, fmt.Errorf("cppcache: %s is not a CPP hierarchy", s.Name())
	}
	cfg := h.Config()
	return cfg.Mask, cfg.VictimPlacement, nil
}

// BaselineDescription renders the Figure 9 configuration table.
func BaselineDescription() string {
	return baselineTable()
}

// CPPVariant names a CPP configuration with explicit design knobs, for
// ablation studies: the affiliated-line mask (the paper uses 0x1:
// next-line pairing) and the victim-placement policy (§3.3). Run and
// RunProgram accept the name like any other configuration;
// CPPVariant(0x1, true) is CPP itself.
func CPPVariant(mask uint32, victimPlacement bool) CacheConfig {
	return CacheConfig(sim.CPPVariant(mask, victimPlacement))
}

// CompressibleWordWidth reports compressibility under a generalised
// compressed width (payloadBits low-order bits kept; the paper uses 15).
// It backs the compression-width ablation.
func CompressibleWordWidth(value, addr uint32, payloadBits int) bool {
	return compressWidth(value, addr, payloadBits)
}
