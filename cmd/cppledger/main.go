// Command cppledger replays a cppserved run ledger offline: the same
// crash-tolerant reader the server uses at boot, feeding the same rollup
// engine that backs /fleet, with no server required.
//
// Usage:
//
//	cppledger -ledger runs.ledger
//	cppledger -ledger runs.ledger -by workload,config -state done -json
//
// It prints the fleet rollup as a table (one row per workload x config x
// compressor x state cell); -by collapses onto the named dimensions and
// -workload/-config/-compressor/-state/-since/-until/-window filter
// exactly like the /fleet query parameters. -json emits the same
// aggregate JSON the server serves. Exit status: 0 on success, 1 on read
// errors, 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"cppcache/internal/ledger"
)

func main() {
	var (
		path       = flag.String("ledger", "", "ledger file to replay (required)")
		by         = flag.String("by", "", "comma-separated grouping dimensions (default: all)")
		workload   = flag.String("workload", "", "filter: workload")
		config     = flag.String("config", "", "filter: cache configuration")
		compressor = flag.String("compressor", "", "filter: compression scheme")
		state      = flag.String("state", "", "filter: terminal state (done, failed, canceled)")
		since      = flag.String("since", "", "filter: records finished at or after this RFC3339 time")
		until      = flag.String("until", "", "filter: records finished before this RFC3339 time")
		window     = flag.String("window", "", "filter: relative window ending now (e.g. 24h; exclusive with -since/-until)")
		jsonOut    = flag.Bool("json", false, "emit the aggregate as JSON")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "cppledger: -ledger is required")
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cppledger: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	f, err := ledger.ParseFilter(*workload, *config, *compressor, *state, *since, *until, *window)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppledger:", err)
		flag.Usage()
		os.Exit(2)
	}
	var dims []string
	if *by != "" {
		for _, d := range strings.Split(*by, ",") {
			d = strings.TrimSpace(d)
			if !ledger.KnownDimension(d) {
				fmt.Fprintf(os.Stderr, "cppledger: unknown dimension %q (known: %s)\n",
					d, strings.Join(ledger.Dimensions, ", "))
				os.Exit(2)
			}
			dims = append(dims, d)
		}
	}

	recs, stats, err := ledger.Replay(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cppledger: %s: %v\n", *path, err)
		os.Exit(1)
	}
	ro := ledger.NewRollup()
	ro.AddAll(recs)
	agg, err := ro.Aggregate(f, dims...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppledger:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(agg)
		return
	}
	printAggregate(agg, stats)
}

// printAggregate renders the rollup as a table: one row per group, the
// latency columns from the execute stage.
func printAggregate(agg *ledger.Aggregate, stats ledger.ReplayStats) {
	fmt.Printf("%d runs in %d groups (by %s)", agg.TotalRuns, len(agg.Groups),
		strings.Join(agg.Dimensions, ","))
	if stats.Skipped > 0 {
		fmt.Printf("; %d damaged records skipped", stats.Skipped)
	}
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	headers := append([]string{}, agg.Dimensions...)
	headers = append(headers, "runs", "memo", "panics", "p50 exec", "p95 exec", "p99 exec", "traffic/kinst", "specs")
	fmt.Fprintln(tw, strings.ToUpper(strings.Join(headers, "\t")))
	for _, g := range agg.Groups {
		row := make([]string, 0, len(headers))
		for _, d := range agg.Dimensions {
			switch d {
			case "workload":
				row = append(row, g.Workload)
			case "config":
				row = append(row, g.Config)
			case "compressor":
				row = append(row, g.Compressor)
			case "state":
				row = append(row, g.State)
			}
		}
		p50, p95, p99 := "-", "-", "-"
		if ex, ok := g.Stages["execute"]; ok {
			p50 = fmtSecs(ex.P50)
			p95 = fmtSecs(ex.P95)
			p99 = fmtSecs(ex.P99)
		}
		traffic := "-"
		if g.TrafficPerKiloInst != nil {
			traffic = fmt.Sprintf("%.1f", g.TrafficPerKiloInst.Mean)
		}
		row = append(row, fmt.Sprint(g.Runs), fmt.Sprint(g.Memoized), fmt.Sprint(g.Panics),
			p50, p95, p99, traffic, fmt.Sprint(g.SpecHashes))
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()

	// Exemplars: one drill-down trace per group, so a fleet anomaly in the
	// table leads to a concrete GET /runs/{id}/trace.
	var exRows []string
	for _, g := range agg.Groups {
		for _, st := range g.Stages {
			for _, b := range st.Buckets {
				if b.ExemplarTrace != "" {
					exRows = append(exRows, fmt.Sprintf("  %s -> run %d trace %s",
						groupName(g), b.ExemplarRun, b.ExemplarTrace))
					break
				}
			}
			break
		}
	}
	if len(exRows) > 0 {
		sort.Strings(exRows)
		fmt.Println("exemplars:")
		for _, r := range exRows {
			fmt.Println(r)
		}
	}
}

// groupName joins a group's non-empty dimension values.
func groupName(g *ledger.Group) string {
	parts := []string{}
	for _, v := range []string{g.Workload, g.Config, g.Compressor, g.State} {
		if v != "" {
			parts = append(parts, v)
		}
	}
	if len(parts) == 0 {
		return "(all)"
	}
	return strings.Join(parts, "/")
}

// fmtSecs renders a stage latency with a sensible unit.
func fmtSecs(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.0fus", s*1e6)
	}
}
