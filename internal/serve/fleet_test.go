package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cppcache/internal/ledger"
)

// getJSON fetches url and decodes the body into v, failing on non-200.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestFleetConservation is the fleet-level conservation test: the /fleet
// rollup must exactly equal the sums of the constituent runs' registry
// counters and span stage durations — the same invariant /metrics holds
// per run, lifted to the fleet.
func TestFleetConservation(t *testing.T) {
	dir := t.TempDir()
	w, err := ledger.OpenWriter(filepath.Join(dir, "runs.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := NewRegistryWith(Config{MaxRunning: 1, Ledger: w}, nil)
	ts := httptest.NewServer(NewServer(reg, nil))
	defer ts.Close()

	// A slow run holds the single worker slot so the next launch queues;
	// canceling the queued run exercises the Cancel-path ledger record.
	slow := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":64}`)
	queued := launch(t, ts, `{"workload":"treeadd","config":"BCC","compressor":"fpc","functional":true}`)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, queued.ID), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitDone(t, ts, slow.ID)
	waitDone(t, ts, queued.ID)
	done := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
	waitDone(t, ts, done.ID)

	var agg ledger.Aggregate
	getJSON(t, ts.URL+"/fleet", &agg)
	if agg.TotalRuns != 3 {
		t.Fatalf("TotalRuns = %d, want 3", agg.TotalRuns)
	}

	// Expected sums straight from the live runs: registry counters and the
	// runs' own closed lifecycle spans.
	var wantInsts, wantMisses int64
	var wantTraffic, wantExec, wantQueue float64
	states := map[string]int64{}
	for _, run := range reg.Runs() {
		if !run.State().Terminal() {
			t.Fatalf("run %d not terminal", run.ID)
		}
		states[string(run.State())]++
		totals := run.Totals()
		wantInsts += totals.Instructions
		wantMisses += totals.L1Misses
		wantTraffic += totals.TrafficWords()
		for _, sp := range run.tracer.Snapshot() {
			switch sp.Name {
			case "execute":
				wantExec += sp.Duration().Seconds()
			case "queue":
				wantQueue += sp.Duration().Seconds()
			}
		}
	}

	var gotRuns, gotInsts, gotMisses int64
	var gotTraffic, gotExec, gotQueue float64
	gotStates := map[string]int64{}
	for _, g := range agg.Groups {
		gotRuns += g.Runs
		gotInsts += g.Instructions
		gotMisses += g.L1Misses
		gotTraffic += g.TrafficWords
		gotStates[g.State] += g.Runs
		if st, ok := g.Stages["execute"]; ok {
			gotExec += st.SumSeconds
		}
		if st, ok := g.Stages["queue"]; ok {
			gotQueue += st.SumSeconds
		}
	}
	if gotRuns != 3 || gotInsts != wantInsts || gotMisses != wantMisses {
		t.Errorf("counter conservation broken: runs %d insts %d/%d misses %d/%d",
			gotRuns, gotInsts, wantInsts, gotMisses, wantMisses)
	}
	if math.Abs(gotTraffic-wantTraffic) > 1e-9 {
		t.Errorf("traffic %g != %g", gotTraffic, wantTraffic)
	}
	if math.Abs(gotExec-wantExec) > 1e-9 || math.Abs(gotQueue-wantQueue) > 1e-9 {
		t.Errorf("stage conservation broken: execute %g/%g queue %g/%g",
			gotExec, wantExec, gotQueue, wantQueue)
	}
	for st, n := range states {
		if gotStates[st] != n {
			t.Errorf("state %s: fleet has %d runs, registry %d", st, gotStates[st], n)
		}
	}
	// The queued-then-canceled run must be in the ledger (canceled either
	// straight out of the queue or just after dispatch).
	if states["canceled"] == 0 {
		t.Errorf("no canceled run recorded: %v", states)
	}

	// Every group exemplar names a retained run whose trace resolves.
	for _, g := range agg.Groups {
		for _, st := range g.Stages {
			for _, b := range st.Buckets {
				if b.ExemplarRun == 0 {
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/runs/%d/trace", ts.URL, b.ExemplarRun))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("exemplar run %d trace: status %d", b.ExemplarRun, resp.StatusCode)
				}
			}
		}
	}

	// Durable round trip: replaying the ledger file and seeding a fresh
	// registry must reproduce the aggregate bit-for-bit (JSON-compared:
	// Go's encoder round-trips float64 exactly).
	recs, stats, err := ledger.Replay(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || len(recs) != 3 {
		t.Fatalf("replay: %d records, %d skipped", len(recs), stats.Skipped)
	}
	for i, rec := range recs {
		if rec.SpecHash == "" || rec.TraceID == "" {
			t.Errorf("record %d missing spec_hash/trace_id: %+v", i, rec)
		}
		if rec.State == string(StateDone) && rec.ResultDigest == "" {
			t.Errorf("done record %d has no result digest", i)
		}
	}
	reg2 := NewRegistry(nil)
	reg2.SeedFleet(recs)
	agg2, err := reg2.FleetAggregate(ledger.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(agg.Groups)
	j2, _ := json.Marshal(agg2.Groups)
	if string(j1) != string(j2) {
		t.Errorf("replayed aggregate differs:\nlive:   %s\nreplay: %s", j1, j2)
	}
}

// awaitTerminal blocks until run reads as terminal, waking on the run's
// own change notifications (as an SSE follower or a sweep does) rather
// than polling, so it sees the flip as early as any reader can.
func awaitTerminal(run *Run) (RunState, error) {
	timeout := time.After(30 * time.Second)
	for {
		state, changed := run.wait()
		if state.Terminal() {
			return state, nil
		}
		select {
		case <-changed:
		case <-timeout:
			return state, fmt.Errorf("run %d still %s after 30s", run.ID, state)
		}
	}
}

// inFleet reports whether the fleet rollup holds run id's record in state.
func inFleet(reg *Registry, id int, state RunState) bool {
	for _, rec := range reg.FleetRecords() {
		if rec.RunID == id && rec.State == string(state) {
			return true
		}
	}
	return false
}

// TestTerminalRunAlreadyRecorded: the instant a run reads as terminal it
// is already in the fleet rollup and, when it completed, in the memo
// store — on every terminal path: completion, failure, panic, cancel
// while running, cancel while queued and cancel on drain. The durable
// ledger append may follow the flip, but no path skips it.
func TestTerminalRunAlreadyRecorded(t *testing.T) {
	w, err := ledger.OpenWriter(filepath.Join(t.TempDir(), "runs.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := NewRegistryWith(Config{MaxRunning: 1, MemoEntries: 256, Ledger: w}, nil)
	// Runs of faultWorkload stall and runs of health panic. Neither ever
	// completes, so the memo never answers their specs.
	injectFault(reg, faultWorkload, stall)
	injectFault(reg, "olden.health", panicNow)
	mustLaunch := func(spec RunSpec) *Run {
		t.Helper()
		run, err := reg.Launch(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	var wg sync.WaitGroup
	watch := func(run *Run, want RunState) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state, err := awaitTerminal(run)
			switch {
			case err != nil:
				t.Error(err)
			case state != want:
				t.Errorf("run %d ended %s, want %s", run.ID, state, want)
			case !inFleet(reg, run.ID, state):
				t.Errorf("run %d read as %s before its fleet record existed", run.ID, state)
			}
		}()
	}

	// Completion: each distinct spec (the interval is part of the spec
	// hash) is in the fleet and the memo the moment it reads done.
	for i := 0; i < 30; i++ {
		spec := RunSpec{Workload: "treeadd", Config: "BC", Functional: true, Scale: 1, Interval: int64(1000 + i)}
		run := mustLaunch(spec)
		state, err := awaitTerminal(run)
		if err != nil || state != StateDone {
			t.Fatalf("run %d: state %s, err %v", run.ID, state, err)
		}
		if !inFleet(reg, run.ID, state) {
			t.Errorf("run %d read as done before its fleet record existed", run.ID)
		}
		if again := mustLaunch(spec); !again.Status().Memoized {
			t.Errorf("identical resubmit of run %d right after it read done missed the memo", run.ID)
		}
	}

	stalled := RunSpec{Workload: "em3d", Functional: true, Scale: 1}
	running := func(run *Run) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for run.State() != StateRunning {
			if time.Now().After(deadline) {
				t.Fatalf("run %d never started", run.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Failure: an injected panic and an expired deadline.
	watch(mustLaunch(RunSpec{Workload: "health", Functional: true, Scale: 1}), StateFailed)
	expiring := stalled
	expiring.TimeoutSec = 0.05
	watch(mustLaunch(expiring), StateFailed)

	// Cancel while queued behind a stalled run, then cancel that run.
	blocker := mustLaunch(stalled)
	queued := mustLaunch(RunSpec{Workload: "treeadd", Functional: true, Scale: 2})
	watch(blocker, StateCanceled)
	watch(queued, StateCanceled)
	running(blocker)
	if err := reg.Cancel(queued.ID, "test: cancel queued"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Cancel(blocker.ID, "test: cancel running"); err != nil {
		t.Fatal(err)
	}

	// Drain: the queued run is canceled on the spot, the stalled one
	// force-canceled when the cooperative window expires.
	blocker = mustLaunch(stalled)
	queued = mustLaunch(RunSpec{Workload: "treeadd", Functional: true, Scale: 3})
	watch(blocker, StateCanceled)
	watch(queued, StateCanceled)
	running(blocker)
	if !reg.Drain(time.Second) {
		t.Fatal("drain timed out")
	}
	wg.Wait()

	// Every terminal run also reached the ledger file.
	recs, _, err := ledger.Replay(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(recs), len(reg.FleetRecords()); got != want {
		t.Errorf("ledger holds %d records, fleet %d", got, want)
	}
}

// TestLedgerInertness: with no ledger configured the observatory behaves
// identically — same simulation outputs (digest-compared), no ledger path
// advertised, and the in-memory fleet still aggregates.
func TestLedgerInertness(t *testing.T) {
	digest := func(withLedger bool) string {
		cfg := Config{}
		if withLedger {
			w, err := ledger.OpenWriter(filepath.Join(t.TempDir(), "runs.ledger"))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			cfg.Ledger = w
		}
		reg := NewRegistryWith(cfg, nil)
		ts := httptest.NewServer(NewServer(reg, nil))
		defer ts.Close()
		st := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
		final := waitDone(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("state = %s (err %q)", final.State, final.Error)
		}
		d, err := ledger.ResultDigest(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(reg.FleetRecords()); got != 1 {
			t.Fatalf("fleet records = %d, want 1", got)
		}
		if withLedger != (reg.LedgerPath() != "") {
			t.Fatalf("LedgerPath = %q with ledger=%v", reg.LedgerPath(), withLedger)
		}
		return d
	}
	with, without := digest(true), digest(false)
	if with != without {
		t.Errorf("result digest differs with ledger on/off: %s vs %s", with, without)
	}
}

// TestFleetFiltersHTTP drives /fleet and /fleet/{dimension} through the
// HTTP query surface: label filters, time windows, and the 400 paths.
func TestFleetFiltersHTTP(t *testing.T) {
	reg := NewRegistry(nil)
	base := time.Unix(1700000000, 0).UTC()
	for i, wl := range []string{"olden.mst", "olden.mst", "olden.treeadd"} {
		state := "done"
		if i == 2 {
			state = "failed"
		}
		reg.SeedFleet([]ledger.Record{{
			RunID: i + 1, TraceID: fmt.Sprintf("t%d", i+1), SpecHash: "h",
			Workload: wl, Config: "CPP", Compressor: "paper", State: state,
			Finished:     base.Add(time.Duration(i) * time.Hour),
			Instructions: 100,
			StageSeconds: map[string]float64{"execute": 0.01},
		}})
	}
	ts := httptest.NewServer(NewServer(reg, nil))
	defer ts.Close()

	cases := []struct {
		query string
		want  int64
	}{
		{"", 3},
		{"?workload=olden.mst", 2},
		{"?state=done", 2},
		{"?workload=olden.mst&state=failed", 0},
		{"?since=" + base.Add(time.Hour).Format(time.RFC3339), 2},
		{"?until=" + base.Add(time.Hour).Format(time.RFC3339), 1},
	}
	for _, c := range cases {
		t.Run("fleet"+c.query, func(t *testing.T) {
			var agg ledger.Aggregate
			getJSON(t, ts.URL+"/fleet"+c.query, &agg)
			if agg.TotalRuns != c.want {
				t.Errorf("TotalRuns = %d, want %d", agg.TotalRuns, c.want)
			}
		})
	}

	// Dimension endpoint collapses to one axis.
	var byWl ledger.Aggregate
	getJSON(t, ts.URL+"/fleet/workload", &byWl)
	if len(byWl.Groups) != 2 {
		t.Fatalf("by-workload groups = %d, want 2", len(byWl.Groups))
	}
	for _, g := range byWl.Groups {
		if g.Config != "" || g.State != "" {
			t.Errorf("by-workload group leaked dimensions: %+v", g)
		}
	}

	for _, bad := range []string{
		"/fleet?state=bogus",
		"/fleet?since=not-a-time",
		"/fleet?window=-5s",
		"/fleet?window=1h&since=" + base.Format(time.RFC3339),
		"/fleet/flavour",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// A relative window ending now excludes the old fixture records.
	var windowed ledger.Aggregate
	getJSON(t, ts.URL+"/fleet?window=1h", &windowed)
	if windowed.TotalRuns != 0 {
		t.Errorf("window=1h TotalRuns = %d, want 0 (records are from 2023)", windowed.TotalRuns)
	}
}

// TestRunsStateFilter: GET /runs ?state= filtering and the deterministic
// (created, id) ordering, table-driven.
func TestRunsStateFilter(t *testing.T) {
	reg := NewRegistryWith(Config{MaxRunning: 1}, nil)
	ts := httptest.NewServer(NewServer(reg, nil))
	defer ts.Close()

	slow := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":64}`)
	q1 := launch(t, ts, `{"workload":"treeadd","config":"CPP","functional":true}`)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, q1.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, ts, slow.ID)
	waitDone(t, ts, q1.ID)
	d2 := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
	waitDone(t, ts, d2.ID)

	count := func(list []RunStatus, state RunState) int {
		n := 0
		for _, st := range list {
			if st.State == state {
				n++
			}
		}
		return n
	}
	var all []RunStatus
	getJSON(t, ts.URL+"/runs", &all)

	cases := []struct {
		query   string
		status  int
		want    int
		uniform RunState
	}{
		{"", http.StatusOK, 3, ""},
		{"?state=done", http.StatusOK, count(all, StateDone), StateDone},
		{"?state=canceled", http.StatusOK, count(all, StateCanceled), StateCanceled},
		{"?state=queued", http.StatusOK, 0, StateQueued},
		{"?state=bogus", http.StatusBadRequest, 0, ""},
	}
	for _, c := range cases {
		t.Run("runs"+c.query, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/runs" + c.query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			if c.status != http.StatusOK {
				return
			}
			var list []RunStatus
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			if len(list) != c.want {
				t.Errorf("%d runs, want %d", len(list), c.want)
			}
			for i, st := range list {
				if c.uniform != "" && st.State != c.uniform {
					t.Errorf("run %d state %s, want %s", st.ID, st.State, c.uniform)
				}
				if i > 0 {
					prev := list[i-1]
					if st.Created.Before(prev.Created) ||
						(st.Created.Equal(prev.Created) && st.ID < prev.ID) {
						t.Errorf("ordering broken at index %d: (%v,%d) after (%v,%d)",
							i, st.Created, st.ID, prev.Created, prev.ID)
					}
				}
			}
		})
	}
}

// TestPromLabelEscaping: label values containing quotes, backslashes and
// newlines must escape per the text exposition format in every family
// that carries them: fleet rollup series and build info.
func TestPromLabelEscaping(t *testing.T) {
	nasty := "a\"b\\c\nd"
	const escaped = `a\"b\\c\nd`

	// Fleet families, via a rollup over a hostile record (the HTTP layer
	// would reject it, but the exposition writer must not rely on that).
	var b strings.Builder
	ro := ledger.NewRollup()
	ro.Add(ledger.Record{
		RunID: 1, TraceID: "t1", SpecHash: "h",
		Workload: nasty, Config: nasty, Compressor: nasty, State: "done",
		StageSeconds: map[string]float64{nasty: 0.01},
	})
	agg, err := ro.Aggregate(ledger.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	writeFleetMetrics(&b, agg)

	// Build info, via a hostile ledger path.
	writeBuildInfo(&b, nasty)

	body := b.String()
	for _, needle := range []string{
		`workload="` + escaped + `"`,
		`cppserved_fleet_runs_total{workload="` + escaped + `"`,
		`stage="` + escaped + `"`,
		`ledger="` + escaped + `"`,
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("exposition missing escaped label %q", needle)
		}
	}
	if strings.Contains(body, nasty) {
		t.Error("raw unescaped label value leaked into exposition")
	}
	// The full body must still parse line-by-line (no label value may
	// break out of its quotes and truncate a sample line).
	parseExposition(t, body)
}

// TestMetricsFleetFamilies: after a run completes, /metrics carries the
// cppserved_fleet_* families and build info for the run's group.
func TestMetricsFleetFamilies(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
	final := waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := parseExposition(t, string(body))

	labels := `workload="olden.mst",config="CPP",compressor="paper",state="done"`
	if got := metrics["cppserved_fleet_runs_total{"+labels+"}"]; got != 1 {
		t.Errorf("fleet runs = %v, want 1", got)
	}
	if got := metrics["cppserved_fleet_instructions_total{"+labels+"}"]; got != float64(final.Totals.Instructions) {
		t.Errorf("fleet instructions = %v, want %d", got, final.Totals.Instructions)
	}
	found := false
	for k := range metrics {
		if strings.HasPrefix(k, "cppserved_build_info{") &&
			strings.Contains(k, `go_version="`+runtime.Version()+`"`) {
			found = true
			if metrics[k] != 1 {
				t.Errorf("build info value = %v, want 1", metrics[k])
			}
		}
	}
	if !found {
		t.Errorf("no cppserved_build_info series with go_version label")
	}
}
