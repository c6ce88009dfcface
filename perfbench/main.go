// Command perfbench is the repository benchmark. It drives the simulator
// and the observatory only through their public entry points, on one of
// three workloads, checks every output it can, and prints one JSON line
// of metrics: the end-to-end metrics of BENCHMARK.json, or with --trace 1
// the per-layer metrics of a separate traced run. Run it from the
// repository root, where the output checks find the goldens, through the
// wrapper that builds it with a build cache inside the checkout:
//
//	python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"figures":     runFigures,
	"traffic":     runTraffic,
	"observatory": runObservatory,
}

// outDir holds the Chrome trace and the observatory's per-pass ledgers.
// It sits under the checkout's build directory, which .gitignore names.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(mainErr(os.Args[1:]))
}

func mainErr(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "figures, traffic or observatory")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload figures|traffic|observatory --seed N --seconds S --trace 0|1\n")
		return 2
	}
	b := newBench(*workload, *seed, *seconds, *trace == 1, fullScope())
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.writeChromeTrace(outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report, result, err := b.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(report)
	fmt.Println(result)
	return 0
}

// finish renders the report line (digest, provenance, checks, layers)
// and the result line the contract reads.
func (b *bench) finish() (report, result string, err error) {
	var metrics map[string]metric
	if b.traced {
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEnd()
	}
	for name, m := range metrics {
		if m.Unit == "" {
			return "", "", fmt.Errorf("metric %s has no unit", name)
		}
	}
	rep, err := json.Marshal(map[string]any{"report": b.reportFields()})
	if err != nil {
		return "", "", err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	return string(rep), string(res), err
}

// writeChromeTrace dumps the traced run's spans, kept in memory until
// now, as one Chrome trace_event file. Rendering it, per simulation run
// of the traced pass, is span.export_ms.
func (b *bench) writeChromeTrace(dir string) error {
	if b.tracer == nil {
		return nil
	}
	b.root.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	t := time.Now()
	chrome := b.tracer.Chrome()
	b.layers.serve["span.export_ms"] = float64(time.Since(t)) / 1e6 / math.Max(1, float64(b.layers.traceRuns))
	if err := os.WriteFile(path, chrome, 0o644); err != nil {
		return err
	}
	b.extra["chrome_trace"] = path
	fmt.Fprintf(os.Stderr, "perfbench: %d spans -> %s\n", b.tracer.Len(), path)
	return nil
}

// provenance records where and how the numbers were taken.
func provenance() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
