// Command cppbench regenerates every table and figure of the paper's
// evaluation (§4) and prints them, optionally as CSV or restricted to one
// figure. EXPERIMENTS.md records a full run of this tool.
//
// Usage:
//
//	cppbench                 # all figures at the default scale
//	cppbench -fig 10         # only Figure 10
//	cppbench -csv -scale 2   # CSV output, smaller workloads
//	cppbench -parallel 4     # fan the figure sweeps over 4 workers
//	cppbench -trace-out t.json  # dump a Chrome trace of the run's spans
//
// It is also the simulator-performance harness: -benchjson runs every
// cache configuration over one benchmark and writes machine-readable
// throughput numbers (BENCH_simperf.json in this repo records a run),
// including a predecode section (trace pre-decode cost and replay scan
// rate) and a parallel section (scheduler scaling probe), and
// -cpuprofile/-memprofile capture pprof profiles of whatever work the
// invocation does.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cppcache"
	"cppcache/internal/sched"
	"cppcache/internal/span"
	"cppcache/internal/trace"
	"cppcache/internal/workload"
)

// perfEntry is one configuration's row in the -benchjson report.
type perfEntry struct {
	Config       string  `json:"config"`
	WallNS       int64   `json:"wall_ns"`
	Insts        int64   `json:"insts"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	Accesses     int64   `json:"accesses"`
	NSPerAccess  float64 `json:"ns_per_access"`
	AllocsPerRun int64   `json:"allocs_per_run"`
	BytesPerRun  int64   `json:"bytes_per_run"`
}

// predecodeReport measures the shared trace pre-decode: how much building
// the struct-of-arrays representation costs, what it weighs, and how fast
// a replay loop scans it.
type predecodeReport struct {
	Insts            int     `json:"insts"`
	BytesPerInst     float64 `json:"bytes_per_inst"`
	DecodeWallNS     int64   `json:"decode_wall_ns"`
	DecodedNSPerInst float64 `json:"decoded_ns_per_inst"`
}

// parallelEntry is one worker-count row of the scheduler scaling probe: a
// fixed batch of independent full-pipeline runs fanned over the
// run scheduler.
type parallelEntry struct {
	Workers     int     `json:"workers"`
	Runs        int     `json:"runs"`
	WallNS      int64   `json:"wall_ns"`
	InstsPerSec float64 `json:"insts_per_sec"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

// parallelReport records the machine's parallelism alongside the scaling
// rows — aggregate throughput is only comparable against baselines pinned
// on the same core count, and a GOMAXPROCS cap below num_cpu changes the
// meaning of the per-worker rows.
type parallelReport struct {
	Cores      int             `json:"cores"` // == num_cpu; kept for older baseline readers
	NumCPU     int             `json:"num_cpu"`
	Gomaxprocs int             `json:"gomaxprocs"`
	Config     string          `json:"config"`
	Batches    []parallelEntry `json:"batches"`
}

// perfReport is the -benchjson output format.
type perfReport struct {
	Benchmark string           `json:"benchmark"`
	Scale     int              `json:"scale"`
	Reps      int              `json:"reps"`
	Configs   []perfEntry      `json:"configs"`
	Predecode *predecodeReport `json:"predecode,omitempty"`
	Parallel  *parallelReport  `json:"parallel,omitempty"`
}

// compareAgainst checks a fresh throughput report against a baseline
// report (the committed BENCH_simperf.json, typically): any configuration
// whose per-run wall time grew by more than tolerance fails. Only
// meaningful on the machine that produced the baseline.
func compareAgainst(rep perfReport, baselinePath string, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base perfReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	byConfig := make(map[string]perfEntry, len(base.Configs))
	for _, e := range base.Configs {
		byConfig[e.Config] = e
	}
	var regressions []string
	for _, e := range rep.Configs {
		b, ok := byConfig[e.Config]
		if !ok || b.WallNS <= 0 {
			continue
		}
		delta := float64(e.WallNS-b.WallNS) / float64(b.WallNS)
		fmt.Fprintf(os.Stderr, "%-4s %8.2f ms/run vs baseline %8.2f ms/run (%+.1f%%)\n",
			e.Config, float64(e.WallNS)/1e6, float64(b.WallNS)/1e6, 100*delta)
		if delta > tolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f%% slower (limit %.1f%%)", e.Config, 100*delta, 100*tolerance))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("throughput regression vs %s: %v", baselinePath, regressions)
	}
	return nil
}

// measurePredecode times the trace pre-decode itself and a scan of the
// struct-of-arrays buffers the simulator fetches from.
func measurePredecode(bench string, scale int) (*predecodeReport, error) {
	wp, err := workload.BuildShared(bench, scale)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d := trace.NewDecoded(wp.Insts())
	decodeWall := time.Since(start)
	n := d.Len()
	if n == 0 {
		return nil, fmt.Errorf("predecode: %s has an empty trace", bench)
	}
	const iters = 20
	var sink uint64
	ops, addrs := d.Ops(), d.Addrs()
	start = time.Now()
	for it := 0; it < iters; it++ {
		for i := range ops {
			sink += uint64(addrs[i]) + uint64(ops[i])
		}
	}
	decodedWall := time.Since(start)
	if sink == 0 {
		fmt.Fprintln(os.Stderr, "predecode: degenerate trace")
	}
	return &predecodeReport{
		Insts:            n,
		BytesPerInst:     float64(d.Bytes()) / float64(n),
		DecodeWallNS:     decodeWall.Nanoseconds(),
		DecodedNSPerInst: float64(decodedWall.Nanoseconds()) / float64(iters*n),
	}, nil
}

// measureParallel fans a fixed batch of independent BC runs over the
// scheduler at increasing worker counts and records the aggregate
// throughput of each batch. With a trace attached, every batch gets a span
// and every run a child span carrying its job and worker index.
func measureParallel(p *cppcache.Program, scale int, tr *span.Span) (*parallelReport, error) {
	cores := runtime.NumCPU()
	counts := []int{1}
	for _, w := range []int{2, cores} {
		if w > counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	const runs = 8
	rep := &parallelReport{
		Cores:      cores,
		NumCPU:     cores,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Config:     string(cppcache.BC),
	}
	var base float64
	for _, w := range counts {
		batch := tr.StartChild(fmt.Sprintf("parallel.w%d", w), span.Int("workers", int64(w)))
		start := time.Now()
		var insts int64
		err := sched.Do(runs, w, batch,
			func(i int) string { return fmt.Sprintf("run %d", i) },
			func(i int) error {
				r, _, err := cppcache.RunProgram(context.Background(), p, cppcache.BC, cppcache.Options{Scale: scale})
				if err != nil {
					return err
				}
				if i == 0 {
					insts = r.Instructions
				}
				return nil
			})
		batch.End()
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		e := parallelEntry{
			Workers:     w,
			Runs:        runs,
			WallNS:      wall.Nanoseconds(),
			InstsPerSec: float64(insts*runs) / wall.Seconds(),
		}
		if base == 0 {
			base = e.InstsPerSec
		}
		if base > 0 {
			e.SpeedupVs1 = e.InstsPerSec / base
		}
		rep.Batches = append(rep.Batches, e)
		fmt.Fprintf(os.Stderr, "parallel workers=%-2d %8.2f ms/batch  %10.0f insts/s aggregate (%.2fx)\n",
			w, float64(e.WallNS)/1e6, e.InstsPerSec, e.SpeedupVs1)
	}
	return rep, nil
}

// runBenchJSON measures end-to-end simulator throughput per cache
// configuration: wall time, instructions and memory accesses retired, and
// the Go allocator's work per run (the hot-path optimisation target).
func runBenchJSON(path, bench string, scale, reps int, tr *span.Span) (perfReport, error) {
	p, err := cppcache.BuildBenchmark(bench, scale)
	if err != nil {
		return perfReport{}, err
	}
	// One untimed warm run so lazily-built state (program cache, text
	// pages) does not land in the first config's numbers.
	if _, _, err := cppcache.RunProgram(context.Background(), p, cppcache.BC, cppcache.Options{Scale: scale}); err != nil {
		return perfReport{}, err
	}
	rep := perfReport{Benchmark: bench, Scale: scale, Reps: reps}
	var before, after runtime.MemStats
	for _, cfg := range cppcache.Configs() {
		var res cppcache.Result
		runtime.GC()
		runtime.ReadMemStats(&before)
		cfgSp := tr.StartChild("config."+string(cfg), span.Int("reps", int64(reps)))
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, _, err = cppcache.RunProgram(context.Background(), p, cfg, cppcache.Options{Scale: scale})
			if err != nil {
				cfgSp.End()
				return perfReport{}, err
			}
		}
		wall := time.Since(start)
		cfgSp.End()
		runtime.ReadMemStats(&after)
		perRun := wall.Nanoseconds() / int64(reps)
		accesses := res.L1Accesses
		e := perfEntry{
			Config:       string(cfg),
			WallNS:       perRun,
			Insts:        res.Instructions,
			InstsPerSec:  float64(res.Instructions) / (float64(perRun) / 1e9),
			Accesses:     accesses,
			AllocsPerRun: int64(after.Mallocs-before.Mallocs) / int64(reps),
			BytesPerRun:  int64(after.TotalAlloc-before.TotalAlloc) / int64(reps),
		}
		if accesses > 0 {
			e.NSPerAccess = float64(perRun) / float64(accesses)
		}
		rep.Configs = append(rep.Configs, e)
		fmt.Fprintf(os.Stderr, "%-4s %8.2f ms/run  %10.0f insts/s  %7d allocs/run\n",
			cfg, float64(perRun)/1e6, e.InstsPerSec, e.AllocsPerRun)
	}
	predecode := tr.StartChild("predecode")
	rep.Predecode, err = measurePredecode(bench, scale)
	predecode.End()
	if err != nil {
		return rep, err
	}
	if rep.Parallel, err = measureParallel(p, scale, tr); err != nil {
		return rep, err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	return rep, os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	var (
		scale      = flag.Int("scale", 0, "workload scale (0 = default)")
		fig        = flag.Int("fig", 0, "only this figure (3, 9, 10, 11, 12, 13, 14, 15); 0 = all")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		related    = flag.Bool("related", false, "also run the related-work comparison (VC, LCC) and the energy estimate")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		benchjson  = flag.String("benchjson", "", "skip the figures; measure simulator throughput per configuration and write JSON to this file")
		benchname  = flag.String("benchname", "olden.health", "benchmark used by -benchjson")
		benchreps  = flag.Int("benchreps", 3, "timed repetitions per configuration for -benchjson")
		against    = flag.String("against", "", "with -benchjson: compare the run to this baseline report and fail on regression")
		regress    = flag.Float64("regress", 0.02, "with -against: tolerated per-config wall-time growth fraction")
		parallel   = flag.Int("parallel", 0, "simulation workers for the figure sweeps (0 = one per CPU)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event dump of this invocation's spans to this file (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	// The span tracer is nil-safe end to end: without -trace-out every
	// instrumentation hook is a single nil check.
	var tracer *span.Tracer
	var root *span.Span
	if *traceOut != "" {
		tracer = span.New(0)
		root = tracer.Start("cppbench", nil,
			span.Int("gomaxprocs", int64(runtime.GOMAXPROCS(0))),
			span.Int("num_cpu", int64(runtime.NumCPU())))
	}
	dumpTrace := func() {
		if tracer == nil {
			return
		}
		root.End()
		if err := os.WriteFile(*traceOut, tracer.Chrome(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans -> %s\n", tracer.Len(), *traceOut)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cppbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cppbench:", err)
			}
		}()
	}

	if *benchjson != "" {
		benchScale := *scale
		if benchScale == 0 {
			benchScale = 1
		}
		rep, err := runBenchJSON(*benchjson, *benchname, benchScale, *benchreps, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		dumpTrace()
		if *against != "" {
			if err := compareAgainst(rep, *against, *regress); err != nil {
				fmt.Fprintln(os.Stderr, "cppbench:", err)
				os.Exit(1)
			}
		}
		return
	}
	if *against != "" {
		fmt.Fprintln(os.Stderr, "cppbench: -against requires -benchjson")
		os.Exit(2)
	}

	s := cppcache.NewSuite(cppcache.SuiteOptions{Scale: *scale, Workers: *parallel, Trace: root})
	show := func(t *cppcache.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Println("#", t.Title)
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	start := time.Now()
	want := func(n int) bool { return *fig == 0 || *fig == n }

	if want(3) {
		show(s.Figure3())
	}
	if want(9) {
		fmt.Println(cppcache.BaselineDescription())
	}
	if want(10) {
		show(s.Figure10())
	}
	if want(11) {
		show(s.Figure11())
	}
	if want(12) {
		show(s.Figure12())
	}
	if want(13) {
		show(s.Figure13())
	}
	if want(14) {
		show(s.Figure14())
	}
	if want(15) {
		show(s.Figure15())
	}
	if *related {
		show(s.RelatedWorkTime())
		show(s.RelatedWorkTraffic())
		show(s.Energy())
	}
	if *fig == 0 {
		show(s.InstructionMix())
	}
	fmt.Fprintf(os.Stderr, "total time: %s\n", time.Since(start).Round(time.Millisecond))
	dumpTrace()
}
