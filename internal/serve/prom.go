package serve

import (
	"fmt"
	"runtime"
	"strings"

	"cppcache/internal/obs"
)

// writeBuildInfo renders the cppserved_build_info gauge: a constant-1
// series whose labels make every scrape self-describing (which Go
// toolchain, how many workers the box offers, where the ledger lives),
// mirroring the provenance block BENCH_perfbench.json records.
func writeBuildInfo(w *strings.Builder, ledgerPath string) {
	fmt.Fprintf(w, "# HELP cppserved_build_info Build and host facts as labels; value is always 1.\n# TYPE cppserved_build_info gauge\n")
	fmt.Fprintf(w, "cppserved_build_info{go_version=\"%s\",gomaxprocs=\"%d\",num_cpu=\"%d\",ledger=\"%s\"} 1\n",
		obs.EscapeLabel(runtime.Version()), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		obs.EscapeLabel(ledgerPath))
}

// writeMetrics renders the registry in Prometheus text exposition format
// version 0.0.4: per-state run counts and the registry's own supervision
// counters (queue depth, recovered panics, admission rejections,
// evictions, dropped snapshots, slow-stream disconnects, memo traffic).
// No family carries a run ID, so the series count stays fixed however
// many runs are retained; a run's live totals are on GET /runs/{id} and
// its SSE stream.
func writeMetrics(w *strings.Builder, runs []*Run, c Counters) {
	byState := map[RunState]int{}
	for _, r := range runs {
		byState[r.State()]++
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
}
