package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cppcache/internal/span"
)

// spansByName indexes a run's span snapshot, failing on missing names.
func spansByName(t *testing.T, run *Run) map[string]span.SpanData {
	t.Helper()
	out := map[string]span.SpanData{}
	for _, d := range run.TraceSpans() {
		out[d.Name] = d
	}
	return out
}

// TestTraceConservation is the span-conservation acceptance test: stage
// spans nest (child ⊆ parent intervals), queue+execute reconcile exactly
// with the registry's created/started/finished timestamps, and the
// cppserved_stage_seconds histogram totals equal the span sums.
func TestTraceConservation(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{})
	st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if st.TraceID == "" {
		t.Fatal("launch status carries no trace_id")
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q)", final.State, final.Error)
	}
	if final.TraceID != st.TraceID {
		t.Fatalf("trace_id changed across the lifecycle: %q -> %q", st.TraceID, final.TraceID)
	}

	run, ok := reg.Get(st.ID)
	if !ok {
		t.Fatal("run vanished")
	}
	if run.TraceID() != st.TraceID {
		t.Fatalf("run.TraceID() = %q, status trace_id %q", run.TraceID(), st.TraceID)
	}

	spans := run.TraceSpans()
	byName := spansByName(t, run)
	for _, name := range []string{"run", "admission", "queue", "execute",
		"workload.build", "sim.build", "sim.run", "sim.finish"} {
		d, ok := byName[name]
		if !ok {
			t.Fatalf("missing %q span (have %d spans)", name, len(spans))
		}
		if d.End.IsZero() {
			t.Fatalf("%q span left open on a terminal run", name)
		}
	}

	// Child ⊆ parent: every parented span's interval sits inside its
	// parent's interval.
	byID := map[span.ID]span.SpanData{}
	for _, d := range spans {
		byID[d.SpanID] = d
	}
	for _, d := range spans {
		if d.ParentID == 0 {
			continue
		}
		p, ok := byID[d.ParentID]
		if !ok {
			t.Fatalf("%q has unknown parent %v", d.Name, d.ParentID)
		}
		if d.Start.Before(p.Start) || d.End.After(p.End) {
			t.Errorf("%q [%v..%v] escapes parent %q [%v..%v]",
				d.Name, d.Start, d.End, p.Name, p.Start, p.End)
		}
	}

	// Exact reconciliation with registry timestamps: the spans are opened
	// and closed with the very instants the status reports.
	status := run.Status()
	if status.Started == nil || status.Finished == nil {
		t.Fatal("terminal run missing timestamps")
	}
	if got, want := byName["queue"].Duration(), status.Started.Sub(status.Created); got != want {
		t.Errorf("queue span %v != started-created %v", got, want)
	}
	if got, want := byName["execute"].Duration(), status.Finished.Sub(*status.Started); got != want {
		t.Errorf("execute span %v != finished-started %v", got, want)
	}
	if got, want := byName["run"].Duration(), status.Finished.Sub(status.Created); got != want {
		t.Errorf("run span %v != finished-created %v", got, want)
	}
	if q, e, r := byName["queue"].Duration(), byName["execute"].Duration(), byName["run"].Duration(); q+e != r {
		t.Errorf("queue %v + execute %v != run %v", q, e, r)
	}

	// The execute span carries the worker slot index.
	var worker *span.Attr
	for i, a := range byName["execute"].Attrs {
		if a.Key == "worker" {
			worker = &byName["execute"].Attrs[i]
		}
	}
	if worker == nil || !worker.IsInt || worker.Int < -1 || worker.Int >= DefaultMaxRunning {
		t.Errorf("execute span worker attr = %+v", worker)
	}

	// Histogram totals equal span sums, both through the Go API and the
	// rendered /metrics exposition.
	for _, stage := range []string{"execute", "queue", "run", "sim.run"} {
		sum, count := reg.StageSeconds(stage)
		if count != 1 {
			t.Errorf("stage %q count = %d, want 1", stage, count)
		}
		if want := byName[stage].Duration().Seconds(); math.Abs(sum-want) > 1e-9 {
			t.Errorf("stage %q histogram sum %v != span seconds %v", stage, sum, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := parseExposition(t, readAll(t, resp))
	if got := metrics[`cppserved_stage_seconds_count{stage="execute"}`]; got != 1 {
		t.Errorf("exposition execute count = %v, want 1", got)
	}
	if got, want := metrics[`cppserved_stage_seconds_sum{stage="execute"}`],
		byName["execute"].Duration().Seconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("exposition execute sum %v != span seconds %v", got, want)
	}
	if got := metrics[`cppserved_stage_seconds_bucket{stage="execute",le="+Inf"}`]; got != 1 {
		t.Errorf("exposition +Inf bucket = %v, want 1", got)
	}

	// The decode stage recorded its cache verdict as an event.
	wb := byName["workload.build"]
	if len(wb.Events) != 1 || wb.Events[0].Name != "decode.cache" {
		t.Errorf("workload.build events = %+v, want one decode.cache", wb.Events)
	}
}

// TestTraceEndpointFormats: GET /runs/{id}/trace serves the span tree and
// the Chrome trace_event export; unknown formats are 400.
func TestTraceEndpointFormats(t *testing.T) {
	ts, _, _ := newServerWith(t, Config{})
	st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	waitDone(t, ts, st.ID)

	get := func(suffix string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d/trace%s", ts.URL, st.ID, suffix))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}

	code, body := get("")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	var tree struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name     string            `json:"name"`
			Children []json.RawMessage `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatalf("trace tree not JSON: %v\n%.300s", err, body)
	}
	if tree.TraceID != st.TraceID {
		t.Errorf("tree trace_id = %q, want %q", tree.TraceID, st.TraceID)
	}
	if len(tree.Spans) == 0 || tree.Spans[0].Name != "run" || len(tree.Spans[0].Children) == 0 {
		t.Errorf("tree roots = %+v, want run with children", tree.Spans)
	}

	code, body = get("?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome: status %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) < 5 {
		t.Errorf("chrome export has %d events", len(chrome.TraceEvents))
	}

	for _, format := range []string{"perfetto", "otlp"} {
		if code, _ := get("?format=" + format); code != http.StatusBadRequest {
			t.Errorf("unknown format %s: status %d, want 400", format, code)
		}
	}
}

// TestTracePanicEvent: a panic mid-run lands on the execute span as a
// panic event, so it is attributable to its stage; the spans still close
// at the terminal instant.
func TestTracePanicEvent(t *testing.T) {
	ts, reg := newFaultServer(t, Config{}, panicNow)
	st := launch(t, ts, `{"workload":"em3d","functional":true,"scale":1}`)
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	run, _ := reg.Get(st.ID)
	byName := spansByName(t, run)
	exec, ok := byName["execute"]
	if !ok {
		t.Fatal("no execute span")
	}
	var panicEv bool
	for _, e := range exec.Events {
		if e.Name == "panic" {
			panicEv = true
		}
	}
	if !panicEv {
		t.Errorf("execute events = %+v, want panic", exec.Events)
	}
	for _, name := range []string{"run", "queue", "execute"} {
		if byName[name].End.IsZero() {
			t.Errorf("%q span left open after failure", name)
		}
	}
	status := run.Status()
	if got, want := byName["execute"].Duration(), status.Finished.Sub(*status.Started); got != want {
		t.Errorf("failed run execute span %v != finished-started %v", got, want)
	}
}

// TestTraceQueuedCanceledRun: a run canceled straight out of the queue
// closes its queue and root spans at the terminal instant and never opens
// an execute span.
func TestTraceQueuedCanceledRun(t *testing.T) {
	ts, reg := newFaultServer(t, Config{MaxRunning: 1}, stall)
	blocker := launch(t, ts, stallSpec(""))
	waitState(t, ts, blocker.ID, StateRunning)
	queued := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if code := del(t, ts, queued.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued: %d", code)
	}
	waitState(t, ts, queued.ID, StateCanceled)
	if code := del(t, ts, blocker.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE blocker: %d", code)
	}
	waitDone(t, ts, blocker.ID)

	run, _ := reg.Get(queued.ID)
	byName := spansByName(t, run)
	if _, ok := byName["execute"]; ok {
		t.Error("canceled-while-queued run has an execute span")
	}
	status := run.Status()
	if got, want := byName["queue"].Duration(), status.Finished.Sub(status.Created); got != want {
		t.Errorf("canceled queue span %v != finished-created %v", got, want)
	}
	if got, want := byName["run"].Duration(), status.Finished.Sub(status.Created); got != want {
		t.Errorf("canceled run span %v != finished-created %v", got, want)
	}
}

// gatedWriter is an SSE consumer that stalls on its first snapshot write
// until released, modelling a reader too slow for the producer. It
// deliberately offers no write-deadline support, so the handler keeps the
// connection instead of disconnecting it.
type gatedWriter struct {
	gate chan struct{}
	once sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func (g *gatedWriter) Header() http.Header { return http.Header{} }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("id:")) {
		g.once.Do(func() { <-g.gate })
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}
func (g *gatedWriter) String() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.String()
}

// sseGap is one gap event's payload: the reader was about to receive
// ordinal From but the ring had already discarded up to Resumed.
type sseGap struct {
	From    int64 `json:"from"`
	Resumed int64 `json:"resumed"`
	Dropped int64 `json:"dropped"`
}

// TestSlowReaderMidStreamGapAccounting: a contrived slow reader — stalled
// on its first snapshot write while the producer laps it — must observe
// gap events whose counts reconcile exactly with the registry's drop
// counter. The invariants hold for every interleaving of subscription vs
// production:
//
//  1. snapshots and gap ranges partition the ordinal space [0, Intervals)
//     in order, with no overlap and no holes, and
//  2. every ring-dropped snapshot is accounted for exactly once: the
//     reader either received it before the ring discarded it, or a gap
//     reported it — received-then-dropped + Σ gap.dropped == the
//     registry's drop counter.
func TestSlowReaderMidStreamGapAccounting(t *testing.T) {
	ts, reg, srv := newServerWith(t, Config{})
	st := launch(t, ts, ringSpec)

	gw := &gatedWriter{gate: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("GET", fmt.Sprintf("/runs/%d/stream", st.ID), nil)
		srv.ServeHTTP(gw, req)
	}()

	final := waitDone(t, ts, st.ID)
	if final.SnapshotsDropped == 0 {
		t.Fatalf("ring never dropped (intervals=%d); gap cannot occur", final.Intervals)
	}
	close(gw.gate) // release the reader only after the ring state is frozen
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stream handler never finished")
	}

	run, _ := reg.Get(st.ID)
	dropped := run.SnapshotsDropped()

	// Replay the SSE transcript: snapshot ordinals come from id: lines,
	// gap payloads from the data: line after each gap event.
	var ids []int64
	var gaps []sseGap
	var lastID int64 = -1
	lines := strings.Split(gw.String(), "\n")
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &lastID)
		case line == "event: snapshot":
			ids = append(ids, lastID)
		case line == "event: gap":
			var g sseGap
			if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[i+1], "data: ")), &g); err != nil {
				t.Fatalf("bad gap payload %q: %v", lines[i+1], err)
			}
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		t.Fatalf("slow reader observed no gap event (%d snapshots, %d dropped)", len(ids), dropped)
	}
	if !strings.Contains(gw.String(), "event: end") {
		t.Error("stream missing end event")
	}

	// Invariant 1: walking the transcript in order covers every ordinal
	// exactly once.
	var next int64
	idx, gapIdx := 0, 0
	for _, line := range lines {
		switch line {
		case "event: snapshot":
			if ids[idx] != next {
				t.Fatalf("snapshot ordinal %d, expected %d (hole or overlap)", ids[idx], next)
			}
			next++
			idx++
		case "event: gap":
			g := gaps[gapIdx]
			gapIdx++
			if g.From != next {
				t.Fatalf("gap.from = %d, reader was at ordinal %d", g.From, next)
			}
			if g.Dropped != g.Resumed-g.From {
				t.Fatalf("gap %+v: dropped != resumed-from", g)
			}
			next = g.Resumed
		}
	}
	if next != int64(final.Intervals) {
		t.Errorf("stream covered [0,%d), run produced %d intervals", next, final.Intervals)
	}

	// Invariant 2: reconcile against the registry drop counter. Ordinals
	// below the final ring base (== the drop counter) were all discarded;
	// the reader saw each one either as a delivered snapshot or inside a
	// gap range, never both, never neither.
	var receivedThenDropped, gapDropped int64
	for _, id := range ids {
		if id < dropped {
			receivedThenDropped++
		}
	}
	for _, g := range gaps {
		gapDropped += g.Dropped
	}
	if receivedThenDropped+gapDropped != dropped {
		t.Errorf("received-then-dropped %d + gap-dropped %d != registry drop counter %d",
			receivedThenDropped, gapDropped, dropped)
	}

	// The gaps are also on the run's trace, as events on the sse.stream
	// span, with the same counts in the same order.
	var gapEvents []span.Event
	for _, d := range run.TraceSpans() {
		if d.Name != "sse.stream" {
			continue
		}
		if d.ParentID != 0 {
			t.Error("sse.stream span must be a root (streams outlive the run span)")
		}
		for _, e := range d.Events {
			if e.Name == "gap" {
				gapEvents = append(gapEvents, e)
			}
		}
	}
	if len(gapEvents) != len(gaps) {
		t.Fatalf("got %d gap span events, stream had %d gaps", len(gapEvents), len(gaps))
	}
	for i, e := range gapEvents {
		for _, a := range e.Attrs {
			switch a.Key {
			case "from":
				if a.Int != gaps[i].From {
					t.Errorf("gap %d span from attr = %d, want %d", i, a.Int, gaps[i].From)
				}
			case "resumed":
				if a.Int != gaps[i].Resumed {
					t.Errorf("gap %d span resumed attr = %d, want %d", i, a.Int, gaps[i].Resumed)
				}
			case "dropped":
				if a.Int != gaps[i].Dropped {
					t.Errorf("gap %d span dropped attr = %d, want %d", i, a.Int, gaps[i].Dropped)
				}
			}
		}
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLogCorrelation: every run-lifecycle log line carries run_id and
// trace_id, so a grep on either reconstructs one run's whole story.
func TestLogCorrelation(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	reg := NewRegistryWith(Config{MaxRunning: 1}, logger)
	injectFault(reg, faultWorkload, stall)
	srv := NewServer(reg, logger)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blocker := launch(t, ts, stallSpec(""))
	waitState(t, ts, blocker.ID, StateRunning)
	queued := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	del(t, ts, queued.ID)
	waitState(t, ts, queued.ID, StateCanceled)
	del(t, ts, blocker.ID)
	waitDone(t, ts, blocker.ID)

	// The terminal log line lands just after the state flip; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), `msg="run canceled"`) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	lifecycle := []string{
		`msg="run launched"`, `msg="run queued"`,
		`msg="queued run canceled"`, `msg="run canceled"`,
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, msg := range lifecycle {
			if !strings.Contains(line, msg) {
				continue
			}
			seen[msg] = true
			if !strings.Contains(line, "run_id=") {
				t.Errorf("log line lacks run_id: %s", line)
			}
			if !strings.Contains(line, "trace_id=") {
				t.Errorf("log line lacks trace_id: %s", line)
			}
		}
	}
	for _, msg := range lifecycle {
		if !seen[msg] {
			t.Errorf("lifecycle event %s never logged", msg)
		}
	}
}
