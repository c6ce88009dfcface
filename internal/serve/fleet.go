package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"

	"cppcache/internal/ledger"
	"cppcache/internal/obs"
)

// recordLocked builds the ledger record of a run that has just reached a
// terminal state and feeds the in-memory consumers: the fleet rollup
// always, the memo store for a real, fault-free completion. Callers hold
// run.mu (see finish) and hand the record to appendLedger once they have
// released it.
func (g *Registry) recordLocked(run *Run) ledger.Record {
	// Per-stage durations for this run alone: the closed lifecycle spans,
	// summed by name. SSE streaming spans are consumer-side, not run
	// anatomy, so they stay out of the record.
	stages := map[string]float64{}
	for _, sp := range run.tracer.Snapshot() {
		if sp.End.IsZero() || strings.HasPrefix(sp.Name, "sse.") {
			continue
		}
		stages[sp.Name] += sp.Duration().Seconds()
	}

	rec := ledger.Record{
		Schema:       ledger.SchemaVersion,
		RunID:        run.ID,
		TraceID:      run.TraceID(),
		SpecHash:     run.specHash,
		Workload:     run.Spec.Workload,
		Config:       run.Spec.Config,
		Compressor:   run.Spec.Compressor,
		Scale:        run.Spec.Scale,
		Functional:   run.Spec.Functional,
		State:        string(run.state),
		Memoized:     run.memoized,
		MemoSource:   run.memoRun,
		Panic:        strings.HasPrefix(run.errMsg, "panic:"),
		Error:        firstLine(run.errMsg),
		Created:      run.created,
		Finished:     run.finished,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		StageSeconds: stages,
		Intervals:    run.snapBase + run.snapCount,
		Instructions: run.totals.Instructions,
		L1Misses:     run.totals.L1Misses,
		TrafficWords: run.totals.TrafficWords(),
	}
	if run.result != nil {
		if d, err := ledger.ResultDigest(run.result); err == nil {
			rec.ResultDigest = d
		}
	}

	// A real completion enters (or refreshes) the memo store; memoized
	// runs never do — the chain always points at an execution. Digest
	// drift against a prior entry for the same spec hash is a determinism
	// violation worth shouting about.
	if g.memo != nil && run.state == StateDone && !run.memoized &&
		run.result != nil && rec.ResultDigest != "" && rec.SpecHash != "" {
		snaps, from := run.snapsFromLocked(0)
		drift := g.memo.store(&memoEntry{
			specHash:    rec.SpecHash,
			runID:       run.ID,
			traceID:     rec.TraceID,
			digest:      rec.ResultDigest,
			full:        true,
			totals:      run.totals,
			snaps:       snaps,
			snapBase:    from,
			snapDropped: run.snapDropped,
			result:      run.result,
			attrText:    run.attrText,
			attrColl:    run.attrColl,
		})
		if drift {
			g.log.Error("memo digest drift: same spec hash produced a different result digest",
				"run_id", run.ID, "trace_id", rec.TraceID, "spec_hash", rec.SpecHash,
				"digest", rec.ResultDigest)
		}
	}

	g.fleet.Add(rec)
	return rec
}

// appendLedger appends a terminal run's record durably when a ledger
// writer is configured. A failure is counted and logged but never
// propagates into the run's own lifecycle.
func (g *Registry) appendLedger(rec ledger.Record) {
	if g.cfg.Ledger == nil {
		return
	}
	if err := g.cfg.Ledger.Append(rec); err != nil {
		g.mu.Lock()
		g.ledgerErrors++
		g.mu.Unlock()
		g.log.Error("ledger append failed", "run_id", rec.RunID,
			"trace_id", rec.TraceID, "err", err)
	}
}

// firstLine truncates an error message to its first line, capped, so a
// recovered panic's stack trace does not bloat every ledger record.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const maxLen = 200
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	return s
}

// SeedFleet loads replayed ledger records into the fleet rollup
// (cppserved calls it at boot so /fleet spans server restarts) and
// warm-starts the memo index: every replayed fault-free done record
// seeds an index-only entry so post-boot re-executions are digest-checked
// against the ledgered result (and promoted to full, servable entries).
func (g *Registry) SeedFleet(recs []ledger.Record) {
	g.fleet.AddAll(recs)
	if g.memo != nil {
		n := g.memo.seed(recs)
		if n > 0 {
			g.log.Info("memo index warm-started from ledger", "entries", n)
		}
	}
}

// FleetRecords returns the fleet's records.
func (g *Registry) FleetRecords() []ledger.Record { return g.fleet.Records() }

// FleetAggregate aggregates the fleet rollup (see ledger.Rollup.Aggregate).
func (g *Registry) FleetAggregate(f ledger.Filter, dims ...string) (*ledger.Aggregate, error) {
	return g.fleet.Aggregate(f, dims...)
}

// LedgerPath returns the configured ledger file ("" when persistence is
// off); surfaces in cppserved_build_info.
func (g *Registry) LedgerPath() string { return g.cfg.Ledger.Path() }

// checkState rejects a state filter that names no lifecycle state; ""
// (no filter) passes. Unlike an offline replay, the server knows every
// state a run or record can carry.
func checkState(s string) error {
	if s == "" {
		return nil
	}
	names := make([]string, 0, len(States()))
	for _, st := range States() {
		if string(st) == s {
			return nil
		}
		names = append(names, string(st))
	}
	return fmt.Errorf("unknown state %q (known: %s)", s, strings.Join(names, ", "))
}

// handleFleet is GET /fleet and GET /fleet/{dimension}: the fleet
// aggregation over every dimension (workload x config x compressor x
// state), or collapsed onto the one named, filtered by the query
// parameters ledger.ParseFilter reads.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var dims []string
	if dim := r.PathValue("dimension"); dim != "" {
		if !ledger.KnownDimension(dim) {
			jsonError(w, http.StatusBadRequest,
				"unknown dimension %q (known: %s)", dim, strings.Join(ledger.Dimensions, ", "))
			return
		}
		dims = []string{dim}
	}
	q := r.URL.Query()
	if err := checkState(q.Get("state")); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f, err := ledger.ParseFilter(q.Get("workload"), q.Get("config"), q.Get("compressor"),
		q.Get("state"), q.Get("since"), q.Get("until"), q.Get("window"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, err := s.reg.FleetAggregate(f, dims...)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

// writeFleetMetrics renders the cppserved_fleet_* families from the full
// fleet aggregate: per-group run counts, summed counters and per-stage
// duration sums/counts. Labels are escaped like every other family; the
// JSON /fleet view carries the exemplar trace IDs Prometheus text
// exposition cannot.
func writeFleetMetrics(w *strings.Builder, agg *ledger.Aggregate) {
	label := func(g *ledger.Group) string {
		return fmt.Sprintf(`workload="%s",config="%s",compressor="%s",state="%s"`,
			obs.EscapeLabel(g.Workload), obs.EscapeLabel(g.Config),
			obs.EscapeLabel(g.Compressor), obs.EscapeLabel(g.State))
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_runs_total Terminal runs recorded in the fleet ledger rollup.\n# TYPE cppserved_fleet_runs_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_runs_total{%s} %d\n", label(g), g.Runs)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_instructions_total Instructions retired, summed over the group's terminal runs.\n# TYPE cppserved_fleet_instructions_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_instructions_total{%s} %d\n", label(g), g.Instructions)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_l1_misses_total L1 misses, summed over the group's terminal runs.\n# TYPE cppserved_fleet_l1_misses_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_l1_misses_total{%s} %d\n", label(g), g.L1Misses)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_traffic_words_total Off-chip traffic words, summed over the group's terminal runs.\n# TYPE cppserved_fleet_traffic_words_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_traffic_words_total{%s} %v\n", label(g), g.TrafficWords)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_panics_total Recovered panics, summed over the group's terminal runs.\n# TYPE cppserved_fleet_panics_total counter\n")
	for _, g := range agg.Groups {
		fmt.Fprintf(w, "cppserved_fleet_panics_total{%s} %d\n", label(g), g.Panics)
	}
	fmt.Fprintf(w, "# HELP cppserved_fleet_stage_seconds_sum Wall-clock seconds per lifecycle stage, summed over the group's terminal runs.\n# TYPE cppserved_fleet_stage_seconds_sum counter\n")
	fmt.Fprintf(w, "# HELP cppserved_fleet_stage_seconds_count Runs contributing to cppserved_fleet_stage_seconds_sum.\n# TYPE cppserved_fleet_stage_seconds_count counter\n")
	for _, g := range agg.Groups {
		stages := make([]string, 0, len(g.Stages))
		for st := range g.Stages {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		for _, st := range stages {
			fmt.Fprintf(w, "cppserved_fleet_stage_seconds_sum{%s,stage=\"%s\"} %v\n",
				label(g), obs.EscapeLabel(st), g.Stages[st].SumSeconds)
			fmt.Fprintf(w, "cppserved_fleet_stage_seconds_count{%s,stage=\"%s\"} %d\n",
				label(g), obs.EscapeLabel(st), g.Stages[st].Count)
		}
	}
}
