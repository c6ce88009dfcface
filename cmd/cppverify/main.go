// Command cppverify cross-checks the cache configurations against the
// oracle memory model on randomized and workload-derived access streams,
// asserting the internal/verify invariants throughout. On a divergence it
// minimizes the failing stream to a short repro and prints it.
//
// Usage:
//
//	cppverify [-seeds 100] [-ops 5000] [-configs BC,BCC,HAC,BCP,CPP]
//	          [-compressor all] [-workloads olden.treeadd,...] [-scale 1]
//	          [-parallel N] [-trace-out spans.json] [-v]
//
// -compressor selects the line-compression schemes to verify (default
// "all": every registered scheme). Configurations that compress bus
// transfers (BCC, LCC) are expanded to one run per selected scheme; the
// other configurations run once under the paper's scheme.
//
// Exit status is 0 when every run is clean, 1 on any divergence.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cppcache/internal/compress"
	"cppcache/internal/sched"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/verify"
	"cppcache/internal/workload"
)

type job struct {
	config string
	stream *verify.Stream
	label  string
}

func main() {
	var (
		seeds     = flag.Int("seeds", 100, "number of random stream seeds per configuration")
		base      = flag.Int64("seed", 1, "first seed")
		ops       = flag.Int("ops", 5000, "ops per random stream")
		configs   = flag.String("configs", strings.Join(sim.Configs(), ","), "comma-separated configurations (also accepts VC, LCC)")
		schemes   = flag.String("compressor", "all", "comma-separated compression schemes for the compressing configs (\"all\" for every registered scheme)")
		workloads = flag.String("workloads", "", "comma-separated workload traces to replay (\"all\" for every benchmark)")
		scale     = flag.Int("scale", 1, "workload scale for -workloads")
		deep      = flag.Int("deep", 256, "full-state invariant scan cadence in ops")
		parallel  = flag.Int("parallel", 0, "parallel verification workers (0 = one per CPU)")
		verbose   = flag.Bool("v", false, "print one line per clean run")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event dump of the verification battery's spans to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cppverify: unexpected arguments:", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	var tracer *span.Tracer
	var root *span.Span
	if *traceOut != "" {
		tracer = span.New(0)
		root = tracer.Start("cppverify", nil)
	}
	dumpTrace := func() {
		if tracer == nil {
			return
		}
		root.End()
		if err := os.WriteFile(*traceOut, tracer.Chrome(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cppverify:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans -> %s\n", tracer.Len(), *traceOut)
	}

	cfgList := splitList(*configs)
	if len(cfgList) == 0 {
		fmt.Fprintln(os.Stderr, "cppverify: no configurations selected")
		os.Exit(2)
	}
	known := map[string]bool{}
	for _, c := range append(sim.Configs(), sim.ExtraConfigs()...) {
		known[c] = true
	}
	for _, c := range cfgList {
		if !known[c] {
			fmt.Fprintf(os.Stderr, "cppverify: unknown configuration %q\n", c)
			os.Exit(2)
		}
	}

	schemeList := schemeArg(*schemes)
	for _, s := range schemeList {
		if _, err := compress.Get(s); err != nil {
			fmt.Fprintln(os.Stderr, "cppverify:", err)
			os.Exit(2)
		}
	}
	// Expand the config x scheme matrix: compressing configs get one run
	// per selected scheme, the rest run once under the paper's default —
	// but only when the default is among the selected schemes.
	var runList []string
	for _, c := range cfgList {
		if compresses(c) {
			for _, s := range schemeList {
				runList = append(runList, sim.WithCompressor(c, s))
			}
			continue
		}
		for _, s := range schemeList {
			if sim.ValidateCompressor(c, s) == nil {
				runList = append(runList, c)
				break
			}
		}
	}
	if len(runList) == 0 {
		fmt.Fprintf(os.Stderr, "cppverify: no runnable config x scheme combinations (-compressor %s applies to %s)\n",
			strings.Join(schemeList, ","), strings.Join(sim.CompressorConfigs(), " and "))
		os.Exit(2)
	}

	var streams []*verify.Stream
	for _, seed := range verify.Seeds(*base, *seeds) {
		streams = append(streams, verify.RandomStream(seed, *ops))
	}
	for _, name := range workloadList(*workloads) {
		s, err := verify.WorkloadStream(name, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppverify:", err)
			os.Exit(2)
		}
		streams = append(streams, s)
	}

	if len(streams) == 0 {
		fmt.Fprintln(os.Stderr, "cppverify: nothing to verify (use -seeds and/or -workloads)")
		os.Exit(2)
	}

	// Fan the stream x config battery over the scheduler and
	// report in job order afterwards, so the output (and the choice of
	// "first" divergence to minimize) is identical for any worker count.
	var jobList []job
	for _, s := range streams {
		for _, c := range runList {
			jobList = append(jobList, job{config: c, stream: s, label: s.Name})
		}
	}
	opt := verify.Options{DeepEvery: *deep}
	divs := make([]*verify.Divergence, len(jobList))
	if err := sched.Do(len(jobList), *parallel, root,
		func(i int) string { return "verify " + jobList[i].config + "/" + jobList[i].label },
		func(i int) error {
			d, err := verify.CheckConfig(jobList[i].config, jobList[i].stream, opt)
			if err != nil {
				return err
			}
			divs[i] = d
			return nil
		}); err != nil {
		// Config was validated up front; this is a bug.
		fmt.Fprintln(os.Stderr, "cppverify:", err)
		os.Exit(2)
	}
	ran := len(jobList)
	var divergent []*verify.Divergence
	for i, d := range divs {
		if d != nil {
			divergent = append(divergent, d)
			fmt.Printf("FAIL %-4s %s: %v\n", jobList[i].config, jobList[i].label, d)
		} else if *verbose {
			fmt.Printf("ok   %-4s %s\n", jobList[i].config, jobList[i].label)
		}
	}

	dumpTrace()
	if len(divergent) == 0 {
		fmt.Printf("PASS: %d runs clean (%d streams x %d configs), invariants: %s\n",
			ran, len(streams), len(runList), strings.Join(verify.Invariants(), ", "))
		return
	}

	// Minimize the first divergence to a short repro.
	first := divergent[0]
	var full *verify.Stream
	for _, s := range streams {
		if s.Name == first.Stream {
			full = s
			break
		}
	}
	fmt.Printf("\n%d of %d runs diverged; minimizing first failure (%s on %s)...\n",
		len(divergent), ran, first.Config, first.Stream)
	if full != nil {
		fails := func(ops []verify.Op) bool {
			d, err := verify.CheckConfig(first.Config, &verify.Stream{Name: "cand", Ops: ops}, opt)
			return err == nil && d != nil
		}
		min := verify.Minimize(full, fails, 500)
		d, _ := verify.CheckConfig(first.Config, min, opt)
		fmt.Printf("repro (%d ops, config %s):\n%s", len(min.Ops), first.Config, verify.FormatOps(min.Ops))
		if d != nil {
			fmt.Printf("fails with: %v\n", d)
		}
	}
	os.Exit(1)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.ToUpper(strings.TrimSpace(part)); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// compresses reports whether the config's bus behaviour depends on the
// selected compression scheme.
func compresses(config string) bool {
	for _, c := range sim.CompressorConfigs() {
		if config == c {
			return true
		}
	}
	return false
}

// schemeArg parses the -compressor list; scheme names are lower-case,
// unlike the upper-case config names.
func schemeArg(s string) []string {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return compress.Schemes()
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.ToLower(strings.TrimSpace(part)); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func workloadList(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if strings.EqualFold(s, "all") {
		var out []string
		for _, bm := range workload.All() {
			out = append(out, bm.Name)
		}
		return out
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
