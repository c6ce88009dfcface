package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// fleetFixture builds a small mixed fleet: two identical mst/CPP runs,
// one mst/BCC@fpc run, one failed treeadd run and one canceled one,
// spread over distinct finish times for window tests.
func fleetFixture() []Record {
	base := time.Unix(1700000000, 0).UTC()
	mk := func(id int, wl, cfg, comp, state string, insts, misses int64,
		traffic, execSecs float64, finishedAt time.Duration) Record {
		return Record{
			RunID:    id,
			TraceID:  fmt.Sprintf("trace-%02d", id),
			SpecHash: fmt.Sprintf("hash-%s-%s-%s", wl, cfg, comp),
			Workload: wl, Config: cfg, Compressor: comp, State: state,
			Created:      base,
			Finished:     base.Add(finishedAt),
			Instructions: insts, L1Misses: misses, TrafficWords: traffic,
			Intervals: 2,
			StageSeconds: map[string]float64{
				"run": execSecs + 0.25, "queue": 0.25, "execute": execSecs,
			},
		}
	}
	recs := []Record{
		mk(1, "olden.mst", "CPP", "paper", "done", 1000, 50, 200, 0.010, 1*time.Minute),
		mk(2, "olden.mst", "CPP", "paper", "done", 1000, 50, 200, 0.020, 2*time.Minute),
		mk(3, "olden.mst", "BCC", "fpc", "done", 1000, 50, 120, 0.150, 3*time.Minute),
		mk(4, "olden.treeadd", "CPP", "paper", "failed", 400, 10, 80, 0.005, 4*time.Minute),
		mk(5, "olden.treeadd", "CPP", "paper", "canceled", 0, 0, 0, 0.001, 5*time.Minute),
	}
	recs[3].Panic = true
	return recs
}

// TestAggregateConservation: every group counter must be the exact sum of
// its member records, and the groups must partition the filtered set —
// the same standard obs and span hold for per-run metrics, applied at
// fleet level.
func TestAggregateConservation(t *testing.T) {
	ro := NewRollup()
	recs := fleetFixture()
	ro.AddAll(recs)

	agg, err := ro.Aggregate(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != int64(len(recs)) {
		t.Errorf("TotalRuns = %d, want %d", agg.TotalRuns, len(recs))
	}

	var wantInsts, wantMisses, wantRuns int64
	var wantTraffic, wantExec float64
	for _, r := range recs {
		wantRuns++
		wantInsts += r.Instructions
		wantMisses += r.L1Misses
		wantTraffic += r.TrafficWords
		wantExec += r.StageSeconds["execute"]
	}
	var gotInsts, gotMisses, gotRuns int64
	var gotTraffic, gotExec float64
	for _, g := range agg.Groups {
		gotRuns += g.Runs
		gotInsts += g.Instructions
		gotMisses += g.L1Misses
		gotTraffic += g.TrafficWords
		if st, ok := g.Stages["execute"]; ok {
			gotExec += st.SumSeconds
			var bucketRuns int64
			for _, b := range st.Buckets {
				bucketRuns += b.Count
			}
			if bucketRuns != st.Count {
				t.Errorf("group %+v: bucket counts sum to %d, stage count %d", g, bucketRuns, st.Count)
			}
		}
	}
	if gotRuns != wantRuns || gotInsts != wantInsts || gotMisses != wantMisses {
		t.Errorf("counter conservation broken: runs %d/%d insts %d/%d misses %d/%d",
			gotRuns, wantRuns, gotInsts, wantInsts, gotMisses, wantMisses)
	}
	if math.Abs(gotTraffic-wantTraffic) > 1e-9 {
		t.Errorf("traffic %g != %g", gotTraffic, wantTraffic)
	}
	if math.Abs(gotExec-wantExec) > 1e-12 {
		t.Errorf("execute seconds %g != %g", gotExec, wantExec)
	}

	// Dimension-reduced aggregation conserves the same totals.
	byState, err := ro.Aggregate(Filter{}, "state")
	if err != nil {
		t.Fatal(err)
	}
	var stateRuns int64
	counts := map[string]int64{}
	for _, g := range byState.Groups {
		if g.Workload != "" || g.Config != "" || g.Compressor != "" {
			t.Errorf("state-only group leaked other dimensions: %+v", g)
		}
		stateRuns += g.Runs
		counts[g.State] = g.Runs
	}
	if stateRuns != wantRuns {
		t.Errorf("by-state runs %d != %d", stateRuns, wantRuns)
	}
	want := map[string]int64{"done": 3, "failed": 1, "canceled": 1}
	for st, n := range want {
		if counts[st] != n {
			t.Errorf("state %s: %d runs, want %d", st, counts[st], n)
		}
	}
}

func TestAggregateFiltersAndWindow(t *testing.T) {
	ro := NewRollup()
	ro.AddAll(fleetFixture())
	base := time.Unix(1700000000, 0).UTC()

	cases := []struct {
		name string
		f    Filter
		want int64
	}{
		{"all", Filter{}, 5},
		{"workload", Filter{Workload: "olden.mst"}, 3},
		{"config", Filter{Config: "BCC"}, 1},
		{"compressor", Filter{Compressor: "paper"}, 4},
		{"state done", Filter{State: "done"}, 3},
		{"since minute 3", Filter{Since: base.Add(3 * time.Minute)}, 3},
		{"until minute 3", Filter{Until: base.Add(3 * time.Minute)}, 2},
		{"window 2..4", Filter{Since: base.Add(2 * time.Minute), Until: base.Add(4 * time.Minute)}, 2},
		{"combined", Filter{Workload: "olden.mst", State: "done", Since: base.Add(2 * time.Minute)}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agg, err := ro.Aggregate(c.f)
			if err != nil {
				t.Fatal(err)
			}
			if agg.TotalRuns != c.want {
				t.Errorf("TotalRuns = %d, want %d", agg.TotalRuns, c.want)
			}
		})
	}

	if _, err := ro.Aggregate(Filter{}, "flavour"); err == nil {
		t.Error("unknown dimension accepted")
	}
}

// TestAggregateZeroWidthWindow pins the boundary semantics of the time
// filter: Since is inclusive, Until exclusive, so a window where
// since == until is empty — not an error, not a one-instant match, even
// when a record's Finished sits exactly on the boundary.
func TestAggregateZeroWidthWindow(t *testing.T) {
	ro := NewRollup()
	ro.AddAll(fleetFixture())
	base := time.Unix(1700000000, 0).UTC()

	// Record 3 finishes exactly at base+3m.
	at := base.Add(3 * time.Minute)
	agg, err := ro.Aggregate(Filter{Since: at, Until: at})
	if err != nil {
		t.Fatalf("zero-width window errored: %v", err)
	}
	if agg.TotalRuns != 0 {
		t.Errorf("zero-width window matched %d runs, want 0", agg.TotalRuns)
	}
	if len(agg.Groups) != 0 {
		t.Errorf("zero-width window produced %d groups, want 0", len(agg.Groups))
	}

	// Widening until by one nanosecond admits exactly the boundary record.
	agg, err = ro.Aggregate(Filter{Since: at, Until: at.Add(time.Nanosecond)})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != 1 {
		t.Errorf("nanosecond window matched %d runs, want exactly the boundary record", agg.TotalRuns)
	}

	// An inverted window (until before since) is likewise empty, not an
	// error — the filter is a pure predicate.
	agg, err = ro.Aggregate(Filter{Since: at, Until: at.Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != 0 {
		t.Errorf("inverted window matched %d runs, want 0", agg.TotalRuns)
	}
}

// TestAggregateUnknownStateCounted guards the replay path against
// silently dropping records written by a newer (or corrupted) server
// whose state vocabulary we don't recognise: an unknown state string must
// flow through aggregation as its own group, keeping conservation exact.
func TestAggregateUnknownStateCounted(t *testing.T) {
	ro := NewRollup()
	ro.AddAll(fleetFixture())
	ro.Add(Record{
		RunID: 99, TraceID: "trace-99", SpecHash: "hash-future",
		Workload: "olden.mst", Config: "CPP", Compressor: "paper",
		State:        "suspended", // not a state this version ever writes
		Finished:     time.Unix(1700000000, 0).UTC().Add(10 * time.Minute),
		Instructions: 77, Intervals: 1,
	})

	agg, err := ro.Aggregate(Filter{}, "state")
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != 6 {
		t.Fatalf("TotalRuns = %d, want 6 (unknown-state record dropped?)", agg.TotalRuns)
	}
	var found *Group
	var runSum, instSum int64
	for _, g := range agg.Groups {
		runSum += g.Runs
		instSum += g.Instructions
		if g.State == "suspended" {
			found = g
		}
	}
	if found == nil {
		t.Fatal("unknown state 'suspended' has no group — record was dropped silently")
	}
	if found.Runs != 1 || found.Instructions != 77 {
		t.Errorf("suspended group = %d runs / %d insts, want 1 / 77", found.Runs, found.Instructions)
	}
	if runSum != 6 || instSum != 3400+77 {
		t.Errorf("conservation broken with unknown state: runs=%d insts=%d", runSum, instSum)
	}

	// Filtering by the unknown state string also works: the filter is a
	// string match, not an enum check.
	agg, err = ro.Aggregate(Filter{State: "suspended"})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalRuns != 1 {
		t.Errorf("State filter for unknown state matched %d, want 1", agg.TotalRuns)
	}
}

// TestAggregateMemoizedCount: memoized members are tallied per group.
func TestAggregateMemoizedCount(t *testing.T) {
	ro := NewRollup()
	recs := fleetFixture()
	recs[1].Memoized = true
	recs[1].MemoSource = recs[0].RunID
	ro.AddAll(recs)

	agg, err := ro.Aggregate(Filter{}, "workload")
	if err != nil {
		t.Fatal(err)
	}
	var mst *Group
	for _, g := range agg.Groups {
		if g.Workload == "olden.mst" {
			mst = g
		}
	}
	if mst == nil || mst.Memoized != 1 {
		t.Fatalf("olden.mst memoized count = %+v, want 1", mst)
	}
}

func TestStageQuantilesAndExemplars(t *testing.T) {
	ro := NewRollup()
	// 100 runs: 99 fast executes (~1ms) and one slow outlier (~900ms).
	for i := 1; i <= 100; i++ {
		exec := 0.001
		if i == 100 {
			exec = 0.9
		}
		ro.Add(Record{
			RunID: i, TraceID: fmt.Sprintf("t%03d", i),
			SpecHash: "h", Workload: "olden.mst", Config: "CPP", Compressor: "paper",
			State:        "done",
			Finished:     time.Unix(1700000000+int64(i), 0).UTC(),
			StageSeconds: map[string]float64{"execute": exec},
		})
	}
	agg, err := ro.Aggregate(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Groups) != 1 {
		t.Fatalf("want 1 group, got %d", len(agg.Groups))
	}
	st := agg.Groups[0].Stages["execute"]
	if st.Count != 100 {
		t.Fatalf("stage count = %d", st.Count)
	}
	// p50/p95 sit in the ~1ms population; p99-by-rank is the 99th of 100,
	// still fast; the bucket max must catch the outlier.
	if st.P50 > 0.005 || st.P95 > 0.005 {
		t.Errorf("p50/p95 pulled up by outlier: p50=%g p95=%g", st.P50, st.P95)
	}
	if st.MaxSeconds < 0.5 {
		t.Errorf("max %g lost the outlier", st.MaxSeconds)
	}
	if st.SumSeconds < 0.99 || st.SumSeconds > 1.0 {
		t.Errorf("sum %g, want 99*1ms + 900ms", st.SumSeconds)
	}

	// Every non-empty bucket carries an exemplar naming a real run, and
	// the outlier's bucket names the outlier.
	var outlierSeen bool
	for _, b := range st.Buckets {
		if b.Count > 0 && b.ExemplarTrace == "" {
			t.Errorf("bucket [%d,%d] has no exemplar", b.LoMicros, b.HiMicros)
		}
		if b.HiMicros >= 900000 && b.LoMicros <= 900000 {
			if b.ExemplarTrace != "t100" || b.ExemplarRun != 100 {
				t.Errorf("outlier bucket exemplar = %s/run %d, want t100/100", b.ExemplarTrace, b.ExemplarRun)
			}
			outlierSeen = true
		}
	}
	if !outlierSeen {
		t.Error("no bucket covers the 900ms outlier")
	}
}

func TestAggregateJSONShape(t *testing.T) {
	ro := NewRollup()
	ro.AddAll(fleetFixture())
	agg, err := ro.Aggregate(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`"total_runs":5`, `"workload":"olden.mst"`, `"compressor":"fpc"`,
		`"p95_seconds"`, `"exemplar_trace_id"`, `"spec_hashes"`,
	} {
		if !strings.Contains(string(b), needle) {
			t.Errorf("aggregate JSON missing %s:\n%s", needle, b)
		}
	}
}

// TestParseFilter pins the text form of a Filter shared by /fleet and
// cppledger: RFC 3339 bounds, a relative window exclusive with them, and
// empty input as the match-everything zero Filter.
func TestParseFilter(t *testing.T) {
	const stamp = "2023-11-14T22:13:20Z"
	at := time.Unix(1700000000, 0).UTC()
	type in struct{ workload, config, compressor, state, since, until, window string }
	cases := []struct {
		name    string
		in      in
		want    Filter
		wantErr string // substring of the error; "" expects success
	}{
		{"empty", in{}, Filter{}, ""},
		{"labels", in{workload: "olden.mst", config: "CPP", compressor: "fpc", state: "suspended"},
			Filter{Workload: "olden.mst", Config: "CPP", Compressor: "fpc", State: "suspended"}, ""},
		{"since", in{since: stamp}, Filter{Since: at}, ""},
		{"until", in{until: stamp}, Filter{Until: at}, ""},
		{"since and until", in{since: stamp, until: "2023-11-15T00:00:00+01:00"},
			Filter{Since: at, Until: time.Date(2023, 11, 14, 23, 0, 0, 0, time.UTC)}, ""},
		{"bad since", in{since: "yesterday"}, Filter{}, `bad since "yesterday"`},
		{"bad until", in{until: "2023-11-14"}, Filter{}, `bad until "2023-11-14"`},
		{"window with since", in{since: stamp, window: "1h"}, Filter{}, "exclusive"},
		{"window with until", in{until: stamp, window: "1h"}, Filter{}, "exclusive"},
		{"zero window", in{window: "0s"}, Filter{}, `bad window "0s"`},
		{"negative window", in{window: "-5s"}, Filter{}, `bad window "-5s"`},
		{"unparsable window", in{window: "a while"}, Filter{}, `bad window "a while"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseFilter(c.in.workload, c.in.config, c.in.compressor, c.in.state,
				c.in.since, c.in.until, c.in.window)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !got.Since.Equal(c.want.Since) || !got.Until.Equal(c.want.Until) {
				t.Errorf("since/until = %v/%v, want %v/%v", got.Since, got.Until, c.want.Since, c.want.Until)
			}
			got.Since, got.Until, c.want.Since, c.want.Until = time.Time{}, time.Time{}, time.Time{}, time.Time{}
			if got != c.want {
				t.Errorf("labels = %+v, want %+v", got, c.want)
			}
		})
	}

	// A window ends now: since is one window before the call.
	before := time.Now()
	f, err := ParseFilter("", "", "", "", "", "", "1h")
	after := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if f.Since.Before(before.Add(-time.Hour)) || f.Since.After(after.Add(-time.Hour)) || !f.Until.IsZero() {
		t.Errorf("window 1h gave since %v until %v, want since in [%v, %v] and no until",
			f.Since, f.Until, before.Add(-time.Hour), after.Add(-time.Hour))
	}
}
