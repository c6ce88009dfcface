package serve

import (
	"fmt"
	"runtime"
	"strings"

	"cppcache/internal/obs"
)

// promFamily is one exported metric family: name, help, type and a getter
// that pulls the sample from a run's accumulated totals.
type promFamily struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value func(t obs.Snapshot) float64
}

// promFamilies is the exposition order. Every counter is a column sum of
// the run's interval snapshots, so at end of run each equals the
// recorder's final total exactly (the snapshot series partitions the
// run); mid-run it equals the total as of the last snapshot boundary.
var promFamilies = []promFamily{
	{"cppsim_cycles", "Simulated cycle of the last snapshot (memory ops in functional mode).", "gauge",
		func(t obs.Snapshot) float64 { return float64(t.Cycle) }},
	{"cppsim_instructions_total", "Instructions retired.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.Instructions) }},
	{"cppsim_l1_accesses_total", "L1 data cache accesses.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.L1Accesses) }},
	{"cppsim_l1_misses_total", "L1 data cache misses.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.L1Misses) }},
	{"cppsim_l2_accesses_total", "L2 cache accesses.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.L2Accesses) }},
	{"cppsim_l2_misses_total", "L2 cache misses.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.L2Misses) }},
	{"cppsim_mem_read_halves_total", "16-bit halves read from main memory.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.MemReadHalves) }},
	{"cppsim_mem_write_halves_total", "16-bit halves written to main memory.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.MemWriteHalves) }},
	{"cppsim_aff_hits_total", "Demand hits on affiliated (prefetched) words.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.AffHits) }},
	{"cppsim_aff_words_prefetched_total", "Words prefetched into affiliated space.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.AffWordsPrefetched) }},
	{"cppsim_promotions_total", "Affiliated lines promoted to resident.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.Promotions) }},
	{"cppsim_pf_buf_hits_total", "Prefetch-buffer hits (BCP) or victim-cache hits (VC).", "counter",
		func(t obs.Snapshot) float64 { return float64(t.PfBufHits) }},
	{"cppsim_pf_issued_total", "Prefetches issued.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.PfIssued) }},
	{"cppsim_fill_words_total", "Words fetched from memory into the hierarchy.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.FillWords) }},
	{"cppsim_fill_comp_words_total", "Fetched words that were compressible to 16 bits.", "counter",
		func(t obs.Snapshot) float64 { return float64(t.FillCompWords) }},
	{"cppsim_pages_touched", "Distinct 4 KiB main-memory pages touched.", "gauge",
		func(t obs.Snapshot) float64 { return float64(t.PagesTouched) }},
}

// writeBuildInfo renders the cppserved_build_info gauge: a constant-1
// series whose labels make every scrape self-describing (which Go
// toolchain, how many workers the box offers, where the ledger lives),
// mirroring the machine fields BENCH_simperf.json records.
func writeBuildInfo(w *strings.Builder, ledgerPath string) {
	fmt.Fprintf(w, "# HELP cppserved_build_info Build and host facts as labels; value is always 1.\n# TYPE cppserved_build_info gauge\n")
	fmt.Fprintf(w, "cppserved_build_info{go_version=\"%s\",gomaxprocs=\"%d\",num_cpu=\"%d\",ledger=\"%s\"} 1\n",
		obs.EscapeLabel(runtime.Version()), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		obs.EscapeLabel(ledgerPath))
}

// writeMetrics renders the registry in Prometheus text exposition format
// version 0.0.4. Each run is one labelled series per family, plus
// per-state run counts, interval counts, and the registry's own
// supervision counters (queue depth, recovered panics, admission
// rejections, evictions, dropped snapshots, slow-stream disconnects).
func writeMetrics(w *strings.Builder, runs []*Run, c Counters) {
	type sample struct {
		labels string
		totals obs.Snapshot
	}
	samples := make([]sample, 0, len(runs))
	byState := map[RunState]int{}
	intervals := make([]int, 0, len(runs))
	for _, r := range runs {
		st := r.Status()
		byState[st.State]++
		intervals = append(intervals, st.Intervals)
		samples = append(samples, sample{
			labels: fmt.Sprintf(`run="%d",workload=%q,config=%q,compressor=%q`,
				r.ID, obs.EscapeLabel(r.Spec.Workload), obs.EscapeLabel(r.Spec.Config),
				obs.EscapeLabel(r.Spec.Compressor)),
			totals: st.Totals,
		})
	}

	fmt.Fprintf(w, "# HELP cppserved_runs Runs by lifecycle state.\n# TYPE cppserved_runs gauge\n")
	for _, st := range States() {
		fmt.Fprintf(w, "cppserved_runs{state=%q} %d\n", string(st), byState[st])
	}
	fmt.Fprintf(w, "# HELP cppserved_queue_depth Runs waiting for a worker slot.\n# TYPE cppserved_queue_depth gauge\n")
	fmt.Fprintf(w, "cppserved_queue_depth %d\n", c.QueueDepth)
	fmt.Fprintf(w, "# HELP cppserved_panics_recovered_total Job panics recovered into failed runs.\n# TYPE cppserved_panics_recovered_total counter\n")
	fmt.Fprintf(w, "cppserved_panics_recovered_total %d\n", c.PanicsRecovered)
	fmt.Fprintf(w, "# HELP cppserved_launch_rejected_total Launches rejected by admission control.\n# TYPE cppserved_launch_rejected_total counter\n")
	fmt.Fprintf(w, "cppserved_launch_rejected_total{reason=\"queue_full\"} %d\n", c.RejectedQueueFull)
	fmt.Fprintf(w, "cppserved_launch_rejected_total{reason=\"draining\"} %d\n", c.RejectedDraining)
	fmt.Fprintf(w, "# HELP cppserved_runs_evicted_total Terminal runs evicted by the retention policy.\n# TYPE cppserved_runs_evicted_total counter\n")
	fmt.Fprintf(w, "cppserved_runs_evicted_total %d\n", c.RunsEvicted)
	fmt.Fprintf(w, "# HELP cppserved_snapshots_dropped_total Interval snapshots discarded by bounded per-run rings.\n# TYPE cppserved_snapshots_dropped_total counter\n")
	fmt.Fprintf(w, "cppserved_snapshots_dropped_total %d\n", c.SnapshotsDropped)
	fmt.Fprintf(w, "# HELP cppserved_slow_streams_disconnected_total SSE consumers disconnected for missing their write deadline.\n# TYPE cppserved_slow_streams_disconnected_total counter\n")
	fmt.Fprintf(w, "cppserved_slow_streams_disconnected_total %d\n", c.SlowStreamsDropped)
	fmt.Fprintf(w, "# HELP cppserved_ledger_append_errors_total Ledger appends that failed (runs themselves unaffected).\n# TYPE cppserved_ledger_append_errors_total counter\n")
	fmt.Fprintf(w, "cppserved_ledger_append_errors_total %d\n", c.LedgerErrors)
	fmt.Fprintf(w, "# HELP cppserved_memo_hits_total Admitted runs served from the spec-hash memo store.\n# TYPE cppserved_memo_hits_total counter\n")
	fmt.Fprintf(w, "cppserved_memo_hits_total %d\n", c.MemoHits)
	fmt.Fprintf(w, "# HELP cppserved_memo_misses_total Admitted runs that executed for real (no servable memo entry).\n# TYPE cppserved_memo_misses_total counter\n")
	fmt.Fprintf(w, "cppserved_memo_misses_total %d\n", c.MemoMisses)
	fmt.Fprintf(w, "# HELP cppserved_memo_entries Memo store entries by completeness (full entries can serve hits; index entries only digest-check).\n# TYPE cppserved_memo_entries gauge\n")
	fmt.Fprintf(w, "cppserved_memo_entries{kind=\"full\"} %d\n", c.MemoFullEntries)
	fmt.Fprintf(w, "cppserved_memo_entries{kind=\"index\"} %d\n", c.MemoEntries-c.MemoFullEntries)
	fmt.Fprintf(w, "# HELP cppserved_memo_digest_drift_total Same spec hash produced a different result digest (determinism violation).\n# TYPE cppserved_memo_digest_drift_total counter\n")
	fmt.Fprintf(w, "cppserved_memo_digest_drift_total %d\n", c.MemoDigestDrift)
	fmt.Fprintf(w, "# HELP cppserved_memo_evictions_total Memo entries evicted by the LRU bound.\n# TYPE cppserved_memo_evictions_total counter\n")
	fmt.Fprintf(w, "cppserved_memo_evictions_total %d\n", c.MemoEvictions)
	fmt.Fprintf(w, "# HELP cppsim_intervals_total Metric snapshots taken.\n# TYPE cppsim_intervals_total counter\n")
	for i, s := range samples {
		fmt.Fprintf(w, "cppsim_intervals_total{%s} %d\n", s.labels, intervals[i])
	}
	for _, f := range promFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range samples {
			fmt.Fprintf(w, "%s{%s} %v\n", f.name, s.labels, f.value(s.totals))
		}
	}
}
