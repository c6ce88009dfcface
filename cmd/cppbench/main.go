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
// -cpuprofile and -memprofile capture pprof profiles of whatever work the
// invocation does. perfbench (python3 perfbench/run.py) measures the
// simulator's performance.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cppcache"
	"cppcache/internal/span"
)

// usageError prints the message followed by flag usage and exits 2, the
// conventional bad-invocation status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cppbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		scale      = flag.Int("scale", 0, "workload scale (0 = default)")
		fig        = flag.Int("fig", 0, "only this figure (3, 9, 10, 11, 12, 13, 14, 15); 0 = all")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		related    = flag.Bool("related", false, "also run the related-work comparison (VC, LCC) and the energy estimate")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		parallel   = flag.Int("parallel", 0, "simulation workers for the figure sweeps (0 = one per CPU)")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event dump of this invocation's spans to this file (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		usageError("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if f := *fig; f != 0 && f != 3 && f != 9 && (f < 10 || f > 15) {
		usageError("no figure %d (known: 3, 9 and 10-15; 0 = all)", f)
	}

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

	s := cppcache.NewSuite(cppcache.SuiteOptions{Scale: *scale, Workers: *parallel, Trace: root})
	show := func(t *cppcache.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppbench:", err)
			os.Exit(1)
		}
		if *csvOut {
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
		if *csvOut {
			baselineCSV(cppcache.BaselineDescription())
		} else {
			fmt.Println(cppcache.BaselineDescription())
		}
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

// baselineCSV prints Figure 9's setup table as a "# title" line and a
// parameter,value CSV, like the other figures under -csv. Each row of the
// text table is a parameter name and its value, separated by a run of at
// least two spaces; values may hold commas, which the CSV writer quotes.
func baselineCSV(desc string) {
	title, body, _ := strings.Cut(desc, "\n")
	fmt.Println("#", title)
	w := csv.NewWriter(os.Stdout)
	w.Write([]string{"parameter", "value"})
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		name, value, _ := strings.Cut(strings.TrimSpace(line), "  ")
		w.Write([]string{name, strings.TrimSpace(value)})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, "cppbench:", err)
		os.Exit(1)
	}
}
