package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/obs"
)

// Lifecycle tests: every transition of the run state machine
// (queued → running → {done, failed, canceled}), cancellation while
// queued, deadline expiry mid-run, panic isolation mid-run, admission
// backpressure, snapshot-ring drop accounting, retention eviction, and
// the fault-isolation guarantee that a panicking neighbour never perturbs
// a healthy run. Faults fire inside the real simulation through
// injectFault. All of these hold under -race (CI runs this package with
// it).

// newServerWith builds a test server over a registry with explicit limits.
func newServerWith(t *testing.T, cfg Config) (*httptest.Server, *Registry, *Server) {
	t.Helper()
	reg := NewRegistryWith(cfg, nil)
	srv := NewServer(reg, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg, srv
}

// faultWorkload is the workload whose runs the test faults strike; the
// healthy runs beside them use other workloads.
const faultWorkload = "olden.em3d"

// injectFault wraps reg's simulation so that every run of workload calls
// fault with the run's context, on the simulation goroutine, right after
// publishing its first interval snapshot. A fault that returns lets the
// simulation go on, so a canceled context ends it at the simulator's next
// cooperative poll; a fault that panics is caught by the registry's
// recovery. Install faults before the first launch.
func injectFault(reg *Registry, workload string, fault func(ctx context.Context)) {
	simulate := reg.simulate
	reg.simulate = func(ctx context.Context, bench string, cfg cppcache.CacheConfig, opts cppcache.Options) (cppcache.Result, *cppcache.Observation, error) {
		if bench == workload {
			observe := *opts.Observe
			publish, fired := observe.OnSnapshot, false
			observe.OnSnapshot = func(s obs.Snapshot) {
				publish(s)
				if !fired {
					fired = true
					fault(ctx)
				}
			}
			opts.Observe = &observe
		}
		return simulate(ctx, bench, cfg, opts)
	}
}

// stall parks a run until its context ends: DELETE, its deadline or a
// drain.
func stall(ctx context.Context) { <-ctx.Done() }

// injectedPanic is the value panicNow raises.
const injectedPanic = "injected fault"

func panicNow(context.Context) { panic(injectedPanic) }

// newFaultServer builds a test server over a registry whose runs of
// faultWorkload fire fault, installed before the server takes requests.
func newFaultServer(t *testing.T, cfg Config, fault func(context.Context)) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistryWith(cfg, nil)
	injectFault(reg, faultWorkload, fault)
	ts := httptest.NewServer(NewServer(reg, nil))
	t.Cleanup(ts.Close)
	return ts, reg
}

// stallSpec is a run of faultWorkload: under a stall fault it runs until
// canceled or timed out.
func stallSpec(extra string) string {
	return `{"workload":"em3d","config":"CPP","functional":true,"scale":1` + extra + `}`
}

// waitState polls until the run reaches the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id int, want RunState) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st RunStatus
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run %d reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %d stuck in %s, want %s", id, st.State, want)
	return RunStatus{}
}

// del issues DELETE /runs/{id} and returns the status code.
func del(t *testing.T, ts *httptest.Server, id int) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCancelRunningRun: DELETE on a running (stalled) job moves it to
// canceled promptly — the stall ends on context cancellation and the
// simulator's cooperative check fires.
func TestCancelRunningRun(t *testing.T) {
	ts, _ := newFaultServer(t, Config{}, stall)
	st := launch(t, ts, stallSpec(""))
	waitState(t, ts, st.ID, StateRunning)
	if code := del(t, ts, st.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running run: status %d, want 202", code)
	}
	final := waitState(t, ts, st.ID, StateCanceled)
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled run error = %q", final.Error)
	}
	if final.Finished == nil || final.Started == nil {
		t.Error("canceled run missing started/finished timestamps")
	}
	// A second DELETE on a terminal run conflicts.
	if code := del(t, ts, st.ID); code != http.StatusConflict {
		t.Errorf("DELETE terminal run: status %d, want 409", code)
	}
}

// TestCancelWhileQueued: with one worker slot occupied by a stalled run,
// a queued run can be canceled before it ever starts; the stalled run is
// then canceled too and the queue drains.
func TestCancelWhileQueued(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1}, stall)
	first := launch(t, ts, stallSpec(""))
	waitState(t, ts, first.ID, StateRunning)
	second := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitState(t, ts, second.ID, StateQueued); got.Started != nil {
		t.Errorf("queued run has a start time: %+v", got)
	}
	if c := reg.Counters(); c.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", c.QueueDepth)
	}
	if code := del(t, ts, second.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued run: status %d, want 202", code)
	}
	canceled := waitState(t, ts, second.ID, StateCanceled)
	if canceled.Started != nil {
		t.Error("canceled-while-queued run claims to have started")
	}
	// Unblock the stalled run and make sure the scheduler survives the
	// canceled queue entry.
	del(t, ts, first.ID)
	waitState(t, ts, first.ID, StateCanceled)
	third := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitDone(t, ts, third.ID); got.State != StateDone {
		t.Fatalf("post-cancel launch: state %s (err %q)", got.State, got.Error)
	}
}

// TestDeadlineExpiryMidRun: a stalled run with a tiny timeout_sec fails
// with a deadline message instead of hogging its worker forever.
func TestDeadlineExpiryMidRun(t *testing.T) {
	ts, _ := newFaultServer(t, Config{}, stall)
	st := launch(t, ts, stallSpec(`,"timeout_sec":0.2`))
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("deadline failure error = %q", final.Error)
	}
}

// TestPanicMidRunIsIsolated: an injected panic becomes a failed run with
// the stack captured, the panic counter ticks, and the service keeps
// serving — a concurrently launched healthy run still completes.
func TestPanicMidRunIsIsolated(t *testing.T) {
	ts, reg := newFaultServer(t, Config{}, panicNow)
	bad := launch(t, ts, `{"workload":"em3d","functional":true,"scale":1}`)
	good := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)

	badFinal := waitDone(t, ts, bad.ID)
	if badFinal.State != StateFailed {
		t.Fatalf("panicked run state = %s, want failed", badFinal.State)
	}
	if !strings.Contains(badFinal.Error, "panic: "+injectedPanic) ||
		!strings.Contains(badFinal.Error, "goroutine") {
		t.Errorf("panicked run error missing panic message or stack:\n%.300s", badFinal.Error)
	}
	if goodFinal := waitDone(t, ts, good.ID); goodFinal.State != StateDone {
		t.Fatalf("healthy neighbour state = %s (err %q)", goodFinal.State, goodFinal.Error)
	}
	if c := reg.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("panics recovered = %d, want 1", c.PanicsRecovered)
	}
	wantMetrics(t, ts, map[string]float64{
		"cppserved_panics_recovered_total": 1,
		`cppserved_runs{state="failed"}`:   1,
		`cppserved_runs{state="done"}`:     1,
	})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after panic: %v / %v", resp, err)
	}
	resp.Body.Close()
}

// TestAdmissionBackpressure: beyond MaxRunning running and MaxQueue
// queued runs, POST /runs is 429 with Retry-After; capacity freed by
// cancellation admits work again.
func TestAdmissionBackpressure(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1, MaxQueue: 1}, stall)
	first := launch(t, ts, stallSpec(""))
	waitState(t, ts, first.ID, StateRunning)
	second := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)

	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"treeadd","functional":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity launch: status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if c := reg.Counters(); c.RejectedQueueFull != 1 {
		t.Errorf("rejected counter = %d, want 1", c.RejectedQueueFull)
	}

	del(t, ts, first.ID)
	waitState(t, ts, first.ID, StateCanceled)
	if got := waitDone(t, ts, second.ID); got.State != StateDone {
		t.Fatalf("queued run after capacity freed: %s (err %q)", got.State, got.Error)
	}
	third := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitDone(t, ts, third.ID); got.State != StateDone {
		t.Fatalf("post-backpressure launch: %s", got.State)
	}
	// Every admitted run is accounted for on the wire, the rejected one
	// only by the queue_full counter.
	wantMetrics(t, ts, map[string]float64{
		`cppserved_runs{state="queued"}`:                       0,
		`cppserved_runs{state="running"}`:                      0,
		`cppserved_runs{state="done"}`:                         2,
		`cppserved_runs{state="failed"}`:                       0,
		`cppserved_runs{state="canceled"}`:                     1,
		`cppserved_launch_rejected_total{reason="queue_full"}`: 1,
		"cppserved_queue_depth":                                0,
	})
}

// wantMetrics scrapes /metrics and checks each listed series' value.
func wantMetrics(t *testing.T, ts *httptest.Server, want map[string]float64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := parseExposition(t, readAll(t, resp))
	for series, v := range want {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", series, g, ok, v)
		}
	}
}

// ringSpec is a run that publishes more interval snapshots than the ring
// holds.
const ringSpec = `{"workload":"treeadd","functional":true,"scale":1,"interval":10}`

// TestSnapshotRingDropsAndGapEvent: a run that outgrows the ring drops
// its oldest snapshots with accounting, and a late stream subscriber is
// told about the gap explicitly before the retained suffix replays.
func TestSnapshotRingDropsAndGapEvent(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, ringSpec)
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s", final.State)
	}
	if final.SnapshotsDropped == 0 || final.Intervals <= snapRing {
		t.Fatalf("expected ring drops: intervals=%d dropped=%d", final.Intervals, final.SnapshotsDropped)
	}
	if final.SnapshotsDropped != int64(final.Intervals-snapRing) {
		t.Errorf("drop accounting: %d dropped of %d intervals with ring %d",
			final.SnapshotsDropped, final.Intervals, snapRing)
	}

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "event: gap") {
		t.Errorf("stream over a dropped prefix carries no gap event:\n%.400s", body)
	}
	wantGap := fmt.Sprintf(`{"from":0,"resumed":%d,"dropped":%d}`,
		final.Intervals-snapRing, final.Intervals-snapRing)
	if !strings.Contains(body, wantGap) {
		t.Errorf("gap payload missing %s:\n%.400s", wantGap, body)
	}
	if got := strings.Count(body, "event: snapshot"); got != snapRing {
		t.Errorf("streamed %d snapshots after gap, want %d (ring size)", got, snapRing)
	}
	if !strings.Contains(body, "event: end") {
		t.Error("stream missing end event")
	}
}

// TestRetentionEviction: beyond retainRuns terminal runs the oldest are
// evicted (404 afterwards) and counted; /metrics still parses. One run
// executes; the memo answers the other launches, born terminal.
func TestRetentionEviction(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{MemoEntries: 1})
	var ids []int
	for i := 0; i < retainRuns+2; i++ {
		st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
		waitDone(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	if c := reg.Counters(); c.RunsEvicted != 2 || c.MemoHits != retainRuns+1 {
		t.Fatalf("evicted = %d, memo hits = %d, want 2 and %d", c.RunsEvicted, c.MemoHits, retainRuns+1)
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted run %d: status %d, want 404", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := parseExposition(t, readAll(t, resp))
	if metrics["cppserved_runs_evicted_total"] != 2 {
		t.Errorf("evicted metric = %v", metrics["cppserved_runs_evicted_total"])
	}
	if metrics[`cppserved_runs{state="done"}`] != retainRuns {
		t.Errorf("retained done runs = %v, want %d", metrics[`cppserved_runs{state="done"}`], retainRuns)
	}
}

// TestPanickingNeighbourDoesNotPerturbHealthyRun is the isolation
// guarantee: a healthy run sharing the registry with a panicking run
// produces results and a snapshot series byte-identical to the same spec
// run solo through the library API.
func TestPanickingNeighbourDoesNotPerturbHealthyRun(t *testing.T) {
	const interval = 5000
	baseRes, baseObs, err := cppcache.Run(context.Background(), "olden.treeadd", cppcache.CPP,
		cppcache.Options{Scale: 1, FunctionalOnly: true, Observe: &cppcache.ObserveOptions{IntervalCycles: interval}})
	if err != nil {
		t.Fatal(err)
	}

	ts, reg := newFaultServer(t, Config{MaxRunning: 2}, panicNow)
	bad := launch(t, ts, `{"workload":"em3d","functional":true,"scale":1}`)
	good := launch(t, ts, fmt.Sprintf(`{"workload":"treeadd","functional":true,"scale":1,"interval":%d}`, interval))
	if st := waitDone(t, ts, bad.ID); st.State != StateFailed {
		t.Fatalf("panicking run state = %s", st.State)
	}
	final := waitDone(t, ts, good.ID)
	if final.State != StateDone {
		t.Fatalf("healthy run state = %s (err %q)", final.State, final.Error)
	}
	if final.Result == nil || *final.Result != baseRes {
		t.Errorf("healthy run result diverged from solo baseline\n  solo: %+v\n  got:  %+v", baseRes, final.Result)
	}
	run, _ := reg.Get(good.ID)
	snaps, from := run.SnapsFrom(0)
	if from != 0 {
		t.Fatalf("healthy run lost snapshots: base %d", from)
	}
	if !reflect.DeepEqual(snaps, baseObs.Snapshots()) {
		t.Error("healthy run snapshot series diverged from solo baseline")
	}
	var sum obs.Snapshot
	for _, s := range snaps {
		addSnapshot(&sum, s)
	}
	if sum != final.Totals {
		t.Error("snapshot sum != served totals")
	}
}

// TestSlowStreamConsumerDisconnected: an SSE consumer that cannot take a
// write within the deadline is dropped and counted instead of pinning the
// handler.
func TestSlowStreamConsumerDisconnected(t *testing.T) {
	ts, reg, srv := newServerWith(t, Config{})
	// Expire every stream write instantly: the first event push must fail
	// against a real network conn, disconnecting the consumer.
	srv.streamWriteTimeout = time.Nanosecond
	st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", ts.URL, st.ID))
	if err == nil {
		readAll(t, resp) // server closes mid-stream; body may be empty
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counters().SlowStreamsDropped > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("slow-stream counter never incremented (= %d)", reg.Counters().SlowStreamsDropped)
}

// TestStateTransitionsDirect drives the registry API (no HTTP) through
// every remaining transition detail: queued runs carry no start time,
// Cancel on unknown ids errors, and terminal states are sticky.
func TestStateTransitionsDirect(t *testing.T) {
	reg := NewRegistryWith(Config{MaxRunning: 1}, nil)
	injectFault(reg, faultWorkload, stall)
	if err := reg.Cancel(42, ""); err == nil {
		t.Error("Cancel(unknown) did not error")
	}
	run, err := reg.Launch(RunSpec{Workload: "em3d", Functional: true, Scale: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := reg.Launch(RunSpec{Workload: "treeadd", Functional: true, Scale: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("second run state = %s, want queued", queued.State())
	}
	if err := reg.Cancel(run.ID, "test cancel"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !queued.State().Terminal() {
		time.Sleep(5 * time.Millisecond)
	}
	if got := queued.State(); got != StateDone {
		t.Fatalf("queued run after slot freed = %s", got)
	}
	if got := run.State(); got != StateCanceled {
		t.Fatalf("canceled run state = %s", got)
	}
	if run.CancelCause() != "test cancel" {
		t.Errorf("cancel cause = %q", run.CancelCause())
	}
	if !reg.Drain(10 * time.Second) {
		t.Error("drain with everything terminal timed out")
	}
}
