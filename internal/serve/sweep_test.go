package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cppcache/internal/ledger"
)

// launchSweep POSTs a sweep spec and returns the 202 status body.
func launchSweep(t *testing.T, ts *httptest.Server, spec string) SweepStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: status %d, body %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Fatal("202 missing Location header")
	}
	var st SweepStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad sweep status %q: %v", body, err)
	}
	return st
}

// getSweep fetches one sweep's status.
func getSweep(t *testing.T, ts *httptest.Server, id int) SweepStatus {
	t.Helper()
	body := fetchText(t, ts, fmt.Sprintf("/sweeps/%d", id), http.StatusOK)
	var st SweepStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad sweep status %q: %v", body, err)
	}
	return st
}

// waitSweep polls until the sweep leaves the running state.
func waitSweep(t *testing.T, ts *httptest.Server, id int) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getSweep(t, ts, id)
		if st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %d still running after 30s: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postSweepExpectSpecError POSTs an invalid sweep and asserts the
// structured 400 names the expected field.
func postSweepExpectSpecError(t *testing.T, ts *httptest.Server, spec, wantField string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var se SpecError
	if err := json.Unmarshal([]byte(body), &se); err != nil {
		t.Fatalf("400 body is not a SpecError: %q (%v)", body, err)
	}
	if se.Field != wantField {
		t.Fatalf("SpecError field %q, want %q (msg %q)", se.Field, wantField, se.Msg)
	}
	if se.Msg == "" {
		t.Fatal("SpecError has an empty message")
	}
}

// TestSweepExpansionDedupAndSkips: the cross-product is expanded with
// spec-hash deduplication (""/"paper" collapse to the same child) and
// invalid cells (fpc on CPP) become reported skips, not failures.
func TestSweepExpansionDedupAndSkips(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launchSweep(t, ts, `{
		"workloads": ["mst"],
		"configs": ["CPP", "BCC"],
		"compressors": ["", "paper", "fpc"],
		"scales": [1],
		"functional": true
	}`)
	// 2 configs x 3 compressors = 6 cells: CPP+fpc is skipped, "" and
	// "paper" dedupe per config, leaving CPP+paper, BCC+paper, BCC+fpc.
	if st.Total != 3 {
		t.Fatalf("total %d, want 3 children (%+v)", st.Total, st)
	}
	if st.Deduped != 2 {
		t.Errorf("deduped %d, want 2", st.Deduped)
	}
	if len(st.Skipped) != 1 {
		t.Fatalf("skipped %d cells, want 1 (%+v)", len(st.Skipped), st.Skipped)
	}
	sk := st.Skipped[0]
	if sk.Config != "CPP" || sk.Compressor != "fpc" || sk.Reason == "" {
		t.Errorf("skip = %+v, want CPP/fpc with a reason", sk)
	}

	final := waitSweep(t, ts, st.ID)
	if final.State != SweepDone || final.Degraded {
		t.Fatalf("final state %s degraded=%v, want clean done", final.State, final.Degraded)
	}
	if final.Counts[string(StateDone)] != 3 {
		t.Fatalf("done count %d, want 3 (%+v)", final.Counts[string(StateDone)], final.Counts)
	}
	for _, ch := range final.Children {
		if ch.Digest == "" || len(ch.Digest) != 64 {
			t.Errorf("child %s/%s has no sha256 result digest: %q",
				ch.Spec.Config, ch.Spec.Compressor, ch.Digest)
		}
	}
}

// TestSweepValidation400s: oversized products and missing dimensions are
// structured 400s naming the offending field; nothing is half-admitted.
func TestSweepValidation400s(t *testing.T) {
	ts, reg := newTestServer(t)
	var scales []string
	for i := 0; i <= MaxSweepProduct; i++ {
		scales = append(scales, fmt.Sprint(i+1))
	}
	postSweepExpectSpecError(t, ts,
		fmt.Sprintf(`{"workloads":["mst"],"configs":["CPP"],"scales":[%s],"functional":true}`,
			strings.Join(scales, ",")),
		"product")
	postSweepExpectSpecError(t, ts, `{"configs":["CPP"]}`, "workloads")
	postSweepExpectSpecError(t, ts, `{"workloads":["mst"]}`, "configs")
	// Every cell invalid: the sweep as a whole is rejected with the first
	// skip reason, not admitted as an empty batch.
	postSweepExpectSpecError(t, ts,
		`{"workloads":["no-such-workload"],"configs":["CPP"],"functional":true}`, "spec")
	// Unknown top-level fields are rejected outright (fail-closed parsing).
	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"workloads":["mst"],"configs":["CPP"],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if _, ok := reg.GetSweep(1); ok {
		t.Fatal("an invalid request admitted a sweep")
	}
}

// TestSweepTableDeterministic: the terminal TSV table carries only
// deterministic columns, sorted by spec tuple — so two independent
// executions of the same sweep produce byte-identical tables.
func TestSweepTableDeterministic(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := `{
		"workloads": ["mst", "treeadd"],
		"configs": ["BCC", "CPP"],
		"scales": [1, 2],
		"functional": true
	}`
	a := waitSweep(t, ts, launchSweep(t, ts, spec).ID)
	b := waitSweep(t, ts, launchSweep(t, ts, spec).ID)
	if a.State != SweepDone || b.State != SweepDone {
		t.Fatalf("states %s/%s, want done/done", a.State, b.State)
	}

	tableA := fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", a.ID), http.StatusOK)
	tableB := fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", b.ID), http.StatusOK)
	if tableA != tableB {
		t.Fatalf("identical sweeps produced different tables:\n--- A ---\n%s--- B ---\n%s", tableA, tableB)
	}

	lines := strings.Split(strings.TrimRight(tableA, "\n"), "\n")
	wantHeader := "workload\tconfig\tcompressor\tscale\tstate\tresult_digest\tcycles\tinstructions\tl1_misses\tl2_misses\ttraffic_words"
	if lines[0] != wantHeader {
		t.Fatalf("table header %q, want %q", lines[0], wantHeader)
	}
	if len(lines) != 1+a.Total {
		t.Fatalf("table has %d rows, want %d", len(lines)-1, a.Total)
	}
	var prevKey string
	for _, line := range lines[1:] {
		cols := strings.Split(line, "\t")
		if len(cols) != 11 {
			t.Fatalf("row %q has %d columns, want 11", line, len(cols))
		}
		if cols[4] != string(StateDone) {
			t.Errorf("row %q state %q, want done", line, cols[4])
		}
		if len(cols[5]) != 64 {
			t.Errorf("row %q digest %q is not sha256 hex", line, cols[5])
		}
		key := strings.Join(cols[:4], "\t")
		if key <= prevKey {
			t.Errorf("rows out of order: %q after %q", key, prevKey)
		}
		prevKey = key
	}
}

// TestSweepCancelFansOut: a drain cancels a sweep whose children are all
// parked behind a stalled slot; every child is canceled and the sweep
// finalises as canceled. The table stays 409 until then.
func TestSweepCancelFansOut(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1}, stall)
	// Park the only slot so every sweep child stays queued.
	blocker := launch(t, ts, stallSpec(""))
	defer reg.Cancel(blocker.ID, "test cleanup")

	st := launchSweep(t, ts, `{
		"workloads": ["mst"],
		"configs": ["CPP"],
		"scales": [2, 3, 4],
		"functional": true
	}`)
	if st.Total != 3 {
		t.Fatalf("total %d, want 3", st.Total)
	}
	fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", st.ID), http.StatusConflict)

	// The drain waits for the stalled blocker, which the test cancels last.
	drained := make(chan bool, 1)
	go func() { drained <- reg.Drain(30 * time.Second) }()

	final := waitSweep(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("final state %s, want canceled (%+v)", final.State, final.Counts)
	}
	if final.Counts[string(StateCanceled)] != 3 {
		t.Fatalf("canceled count %d, want 3 (%+v)", final.Counts[string(StateCanceled)], final.Counts)
	}

	// The table of a canceled sweep is still served (every child is
	// terminal) and carries canceled states with empty digests.
	table := fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", st.ID), http.StatusOK)
	if !strings.Contains(table, string(StateCanceled)) {
		t.Errorf("canceled sweep table missing canceled rows:\n%s", table)
	}

	if err := reg.Cancel(blocker.ID, "unblock"); err != nil {
		t.Fatal(err)
	}
	if !<-drained {
		t.Error("drain timed out")
	}
}

// TestSweepChildRefusedByDrainIsCanceled: a child that meets a closed
// registry ends canceled with Drain's cause, not failed, so it cannot
// leave a drained sweep done and degraded.
func TestSweepChildRefusedByDrainIsCanceled(t *testing.T) {
	reg := NewRegistry(nil)
	if !reg.Drain(time.Second) {
		t.Fatal("empty registry did not drain")
	}
	spec, err := normalize(RunSpec{Workload: "mst", Config: "CPP", Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	ch := &sweepChild{Spec: spec, State: StateQueued}
	sw := &Sweep{lifecycle: lifecycle{state: StateRunning}, children: []*sweepChild{ch}}
	reg.runSweepChild(context.Background(), sw, ch)
	if ch.State != StateCanceled || ch.Error != "server draining" {
		t.Fatalf("child %s (%q), want canceled (server draining)", ch.State, ch.Error)
	}
}

// TestDrainCancelsSweepsBeforeClosing: Drain cancels every sweep no later
// than it closes admission, so a drained sweep whose children are queued,
// waiting for room or not yet started ends canceled with every child
// canceled, never done and degraded.
func TestDrainCancelsSweepsBeforeClosing(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 2, MaxQueue: 1}, stall)
	// Stall both slots: the sweep's two engines then find room for one
	// child in the queue and turn the next away.
	blockers := []RunStatus{launch(t, ts, stallSpec("")), launch(t, ts, stallSpec(""))}
	st := launchSweep(t, ts, `{"workloads":["mst"],"configs":["CPP"],"scales":[2,3,4],"functional":true}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued := 0
		for _, ch := range getSweep(t, ts, st.ID).Children {
			if ch.RunID != 0 {
				queued++
			}
		}
		if queued == 1 && reg.Counters().RejectedQueueFull >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no child queued and one waiting within 10s: %d queued, %d refused",
				queued, reg.Counters().RejectedQueueFull)
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan bool, 1)
	go func() { drained <- reg.Drain(30 * time.Second) }()
	final := waitSweep(t, ts, st.ID)
	if final.State != StateCanceled || final.Counts[string(StateCanceled)] != final.Total {
		t.Fatalf("drained sweep ended %s with counts %v, want canceled with all %d children canceled",
			final.State, final.Counts, final.Total)
	}
	for _, b := range blockers {
		reg.Cancel(b.ID, "unblock")
	}
	if !<-drained {
		t.Error("drain timed out")
	}
}

// TestSweepDegradedPartialFailure: canceling a single child run degrades
// the sweep but does not abort it — the remaining children complete and
// the sweep ends done with degraded=true and a per-state rollup that
// conserves against the child total.
func TestSweepDegradedPartialFailure(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1}, stall)
	blocker := launch(t, ts, stallSpec(""))

	st := launchSweep(t, ts, `{
		"workloads": ["mst"],
		"configs": ["CPP"],
		"scales": [2, 3, 4],
		"functional": true
	}`)

	// Wait for the first child to be admitted (it queues behind the
	// blocker), then cancel that child run directly — run-level, not
	// sweep-level.
	var victim int
	deadline := time.Now().Add(10 * time.Second)
	for victim == 0 {
		for _, ch := range getSweep(t, ts, st.ID).Children {
			if ch.RunID != 0 {
				victim = ch.RunID
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no sweep child was admitted within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := reg.Cancel(victim, "induced partial failure"); err != nil {
		t.Fatalf("cancel child run %d: %v", victim, err)
	}
	// Free the slot so the surviving children execute.
	reg.Cancel(blocker.ID, "unblock")

	final := waitSweep(t, ts, st.ID)
	if final.State != SweepDone {
		t.Fatalf("final state %s, want done (%+v)", final.State, final.Counts)
	}
	if !final.Degraded {
		t.Fatal("sweep with a canceled child is not flagged degraded")
	}
	got := final.Counts[string(StateDone)] + final.Counts[string(StateFailed)] +
		final.Counts[string(StateCanceled)]
	if got != final.Total {
		t.Fatalf("terminal counts %v sum to %d, want total %d", final.Counts, got, final.Total)
	}
	if final.Counts[string(StateCanceled)] < 1 {
		t.Fatalf("counts %v missing the canceled child", final.Counts)
	}
	if final.Counts[string(StateDone)] < 2 {
		t.Fatalf("counts %v: surviving children did not complete", final.Counts)
	}
}

// TestSweepSSEProgress: the progress stream opens with reconnect advice,
// emits monotonically-id'd progress events and closes with an "end" event
// carrying the full terminal status.
func TestSweepSSEProgress(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launchSweep(t, ts, `{
		"workloads": ["mst"],
		"configs": ["CPP"],
		"scales": [1, 2],
		"functional": true
	}`)

	resp, err := http.Get(ts.URL + fmt.Sprintf("/sweeps/%d/stream", st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		sawRetry  bool
		progress  int
		lastEvent string
		endData   string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "retry: "):
			sawRetry = true
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
			if lastEvent == "progress" {
				progress++
			}
		case strings.HasPrefix(line, "data: ") && lastEvent == "end":
			endData = strings.TrimPrefix(line, "data: ")
		}
		if endData != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawRetry {
		t.Error("stream did not open with a retry advice line")
	}
	if progress < 1 {
		t.Errorf("saw %d progress events, want at least 1", progress)
	}
	var final SweepStatus
	if err := json.Unmarshal([]byte(endData), &final); err != nil {
		t.Fatalf("bad end payload %q: %v", endData, err)
	}
	if final.State != SweepDone || final.Counts[string(StateDone)] != 2 {
		t.Fatalf("end event state %s counts %v, want done with 2 done children",
			final.State, final.Counts)
	}
}

// TestSweepMemoized: with memoization on, a sweep repeating an
// already-executed spec reports the child as memoized and the digests
// match the executed original byte for byte.
func TestSweepMemoized(t *testing.T) {
	ts, _ := newTestServerWith(t, Config{MemoEntries: 8})
	spec := `{"workloads":["mst"],"configs":["CPP"],"scales":[1],"functional":true}`
	first := waitSweep(t, ts, launchSweep(t, ts, spec).ID)
	second := waitSweep(t, ts, launchSweep(t, ts, spec).ID)
	if first.Memoized != 0 {
		t.Fatalf("first sweep memoized %d children, want 0", first.Memoized)
	}
	if second.Memoized != 1 {
		t.Fatalf("second sweep memoized %d children, want 1 (%+v)", second.Memoized, second.Children)
	}
	if !bytes.Equal(
		[]byte(fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", first.ID), http.StatusOK)),
		[]byte(fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", second.ID), http.StatusOK)),
	) {
		t.Fatal("memoized sweep table differs from the executed original")
	}
}

// TestSweepRowsMatchStandaloneRuns: every row of a sweep's table equals
// what a standalone POST /runs?nocache=1 of the same spec produces — the
// same state, result digest and counters.
func TestSweepRowsMatchStandaloneRuns(t *testing.T) {
	ts, _ := newTestServer(t)
	st := waitSweep(t, ts, launchSweep(t, ts, `{
		"workloads": ["mst", "treeadd"],
		"configs": ["BC", "CPP"],
		"scales": [1],
		"functional": true
	}`).ID)
	table := fetchText(t, ts, fmt.Sprintf("/sweeps/%d/table", st.ID), http.StatusOK)
	rows := map[string]bool{}
	for _, row := range strings.Split(strings.TrimRight(table, "\n"), "\n")[1:] {
		rows[row] = true
	}
	if len(rows) != 4 || st.Total != 4 {
		t.Fatalf("%d table rows, %d children, want 4 of each:\n%s", len(rows), st.Total, table)
	}
	for _, ch := range st.Children {
		spec, err := json.Marshal(ch.Spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/runs?nocache=1", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var run RunStatus
		if err := json.Unmarshal([]byte(readAll(t, resp)), &run); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /runs %s: status %d, err %v", spec, resp.StatusCode, err)
		}
		final := waitDone(t, ts, run.ID)
		if final.Result == nil {
			t.Fatalf("standalone run %d (%s) has no result: %s %s", run.ID, spec, final.State, final.Error)
		}
		digest, err := ledger.ResultDigest(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		r := final.Result
		want := fmt.Sprintf("%s\t%s\t%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%g",
			ch.Spec.Workload, ch.Spec.Config, ch.Spec.Compressor, ch.Spec.Scale, final.State,
			digest, r.Cycles, r.Instructions, r.L1Misses, r.L2Misses, r.MemTrafficWords)
		if !rows[want] {
			t.Errorf("standalone run of %s gives row\n%s\nwhich the sweep table lacks:\n%s", spec, want, table)
		}
	}
}

// TestSweepWaitsOnFullQueue: with the only slot stalled and the wait
// queue full, a sweep's child is turned away with ErrQueueFull and waits
// for a worker slot without asking again; once the slot frees the sweep
// ends done, not degraded.
func TestSweepWaitsOnFullQueue(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1, MaxQueue: 1}, stall)
	blocker := launch(t, ts, stallSpec(""))
	launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`) // fills the queue
	st := launchSweep(t, ts, `{"workloads":["treeadd"],"configs":["BC","CPP"],"scales":[1],"functional":true}`)

	deadline := time.Now().Add(10 * time.Second)
	for reg.Counters().RejectedQueueFull == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sweep child was turned away by the full queue within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	// No slot frees while the blocker stalls, so a waiting child is not
	// refused again.
	time.Sleep(300 * time.Millisecond)
	if n := reg.Counters().RejectedQueueFull; n != 1 {
		t.Fatalf("%d queue-full refusals while no slot freed, want 1", n)
	}
	if err := reg.Cancel(blocker.ID, "unblock"); err != nil {
		t.Fatal(err)
	}

	final := waitSweep(t, ts, st.ID)
	if final.State != SweepDone || final.Degraded || final.Counts[string(StateDone)] != final.Total {
		t.Fatalf("sweep ended %s degraded=%v counts %v, want all %d children done",
			final.State, final.Degraded, final.Counts, final.Total)
	}
}

// TestSweepChildWaitingForRoomIsDrained: a child waiting on the full
// queue wakes when Drain cancels its sweep and ends canceled at once, not
// when some timer fires.
func TestSweepChildWaitingForRoomIsDrained(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1, MaxQueue: 1}, stall)
	blocker := launch(t, ts, stallSpec(""))
	launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`) // fills the queue
	st := launchSweep(t, ts, `{"workloads":["treeadd"],"configs":["CPP"],"scales":[1],"functional":true}`)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counters().RejectedQueueFull == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sweep child was not turned away by the full queue within 10s")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan bool, 1)
	start := time.Now()
	go func() { drained <- reg.Drain(30 * time.Second) }()
	final := waitSweep(t, ts, st.ID)
	if took := time.Since(start); took > time.Second {
		t.Errorf("the waiting child took %v to end after the drain, want under 1s", took)
	}
	if final.State != StateCanceled || final.Children[0].State != StateCanceled {
		t.Fatalf("drained sweep ended %s with child %s, want both canceled", final.State, final.Children[0].State)
	}
	reg.Cancel(blocker.ID, "unblock")
	if !<-drained {
		t.Error("drain timed out")
	}
}

// TestSweepRetention: beyond retainSweeps terminal sweeps, admitting a
// sweep forgets the oldest (404 afterwards); the newer ones stay. Every
// sweep repeats a memoized spec, so each ends as soon as it starts.
func TestSweepRetention(t *testing.T) {
	ts, _ := newTestServerWith(t, Config{MemoEntries: 1})
	waitDone(t, ts, launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`).ID)
	var ids []int
	for i := 0; i < retainSweeps+3; i++ {
		st := waitSweep(t, ts, launchSweep(t, ts, `{"workloads":["mst"],"configs":["CPP"],"scales":[1],"functional":true}`).ID)
		if st.State != StateDone || st.Memoized != 1 {
			t.Fatalf("sweep %d ended %s with %d memoized children, want done and 1", st.ID, st.State, st.Memoized)
		}
		ids = append(ids, st.ID)
	}
	// Admitting sweep k finds the k-1 before it terminal, so the last two
	// admissions each forgot the oldest.
	for i, id := range ids {
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		fetchText(t, ts, fmt.Sprintf("/sweeps/%d", id), want)
	}
}
