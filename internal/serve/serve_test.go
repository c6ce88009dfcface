package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/obs"
)

// launch posts a spec and returns the created run's status.
func launch(t *testing.T, ts *httptest.Server, spec string) RunStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs: status %d", resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the run reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id int) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var st RunStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %d did not finish", id)
	return RunStatus{}
}

func newTestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(nil)
	ts := httptest.NewServer(NewServer(reg, nil))
	t.Cleanup(ts.Close)
	return ts, reg
}

// parseExposition parses Prometheus text format into metric{labels} -> value,
// failing on any malformed line.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if i := strings.IndexByte(key, '{'); i >= 0 && !strings.HasSuffix(key, "}") {
			t.Fatalf("unbalanced labels in %q", line)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		out[key] = val
	}
	return out
}

// TestMetricsMatchRunTotals is the wire-conservation test: at end of run
// the run's fleet group on /metrics must equal the recorder's final totals
// (reached independently through cppcache.Run's Result and the run
// status).
func TestMetricsMatchRunTotals(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
	if st.Spec.Workload != "olden.mst" {
		t.Fatalf("workload suffix not resolved: %q", st.Spec.Workload)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := parseExposition(t, readAll(t, resp))

	labels := `{workload="olden.mst",config="CPP",compressor="paper",state="done"}`
	want := map[string]float64{
		"cppserved_fleet_runs_total":          1,
		"cppserved_fleet_instructions_total":  float64(final.Totals.Instructions),
		"cppserved_fleet_l1_misses_total":     float64(final.Totals.L1Misses),
		"cppserved_fleet_traffic_words_total": float64(final.Totals.MemReadHalves+final.Totals.MemWriteHalves) / 2,
	}
	for name, w := range want {
		got, ok := metrics[name+labels]
		if !ok {
			t.Fatalf("series %s%s missing from exposition", name, labels)
		}
		if got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}

	// The run status totals must in turn equal the authoritative
	// simulation result: conservation holds across the whole wire.
	res := final.Result
	if res == nil {
		t.Fatal("done run has no result")
	}
	if final.Totals.Instructions != res.Instructions {
		t.Errorf("summed snapshot instructions %d != result %d", final.Totals.Instructions, res.Instructions)
	}
	if final.Totals.L1Misses != res.L1Misses {
		t.Errorf("summed snapshot L1 misses %d != result %d", final.Totals.L1Misses, res.L1Misses)
	}
	if final.Totals.L1Accesses != res.L1Accesses {
		t.Errorf("summed snapshot L1 accesses %d != result %d", final.Totals.L1Accesses, res.L1Accesses)
	}
	if final.Totals.L2Misses != res.L2Misses {
		t.Errorf("summed snapshot L2 misses %d != result %d", final.Totals.L2Misses, res.L2Misses)
	}
	if got := float64(final.Totals.MemReadHalves+final.Totals.MemWriteHalves) / 2; got != res.MemTrafficWords {
		t.Errorf("summed snapshot traffic %v words != result %v", got, res.MemTrafficWords)
	}
	if metrics[`cppserved_runs{state="done"}`] != 1 {
		t.Errorf("cppserved_runs{state=done} = %v, want 1", metrics[`cppserved_runs{state="done"}`])
	}
}

// TestStreamDeltasSumToTotals consumes the SSE stream of a finished run
// and checks that summing the streamed deltas reproduces the run totals.
func TestStreamDeltasSumToTotals(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"treeadd","config":"CPP","functional":true,"scale":1}`)
	// Connect immediately — the stream must replay any snapshots that
	// land before the subscription and then follow to completion.
	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var (
		sum     obs.Snapshot
		nSnaps  int
		end     RunStatus
		gotEnd  bool
		event   string
		scanner = bufio.NewScanner(resp.Body)
	)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "snapshot":
				var s obs.Snapshot
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					t.Fatalf("bad snapshot payload: %v", err)
				}
				addSnapshot(&sum, s)
				nSnaps++
			case "end":
				if err := json.Unmarshal([]byte(data), &end); err != nil {
					t.Fatalf("bad end payload: %v", err)
				}
				gotEnd = true
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if !gotEnd {
		t.Fatal("stream closed without an end event")
	}
	if end.State != StateDone {
		t.Fatalf("end state = %s", end.State)
	}
	if nSnaps != end.Intervals {
		t.Errorf("streamed %d snapshots, run has %d intervals", nSnaps, end.Intervals)
	}
	if sum != end.Totals {
		t.Errorf("summed stream deltas != run totals\n  stream: %+v\n  totals: %+v", sum, end.Totals)
	}
	if end.Result != nil && sum.L1Misses != end.Result.L1Misses {
		t.Errorf("streamed L1 misses %d != result %d", sum.L1Misses, end.Result.L1Misses)
	}
}

// TestProfileEndpoint checks attribution serving and its state handling.
func TestProfileEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"treeadd","config":"CPP","functional":true,"scale":1,"attr":true}`)
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s", final.State)
	}

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/profile", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d: %s", resp.StatusCode, text)
	}
	for _, needle := range []string{"attribution profile", "l1_miss: total", "top PCs", "top regions"} {
		if !strings.Contains(text, needle) {
			t.Errorf("profile missing %q:\n%s", needle, text)
		}
	}

	resp, err = http.Get(fmt.Sprintf("%s/runs/%d/profile?format=collapsed", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	collapsed := readAll(t, resp)
	if !strings.Contains(collapsed, "l1_miss;region_") {
		t.Errorf("collapsed output missing stack lines:\n%.200s", collapsed)
	}

	// A run without attribution 404s its profile.
	st2 := launch(t, ts, `{"workload":"treeadd","config":"BC","functional":true,"scale":1}`)
	waitDone(t, ts, st2.ID)
	resp, err = http.Get(fmt.Sprintf("%s/runs/%d/profile", ts.URL, st2.ID))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("profile of attr-less run: status %d, want 404", resp.StatusCode)
	}
}

// TestLaunchValidation exercises spec validation through the HTTP layer.
func TestLaunchValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		spec string
		code int
	}{
		{`{"workload":"treeadd","config":"CPP","functional":true}`, http.StatusCreated},
		{`{}`, http.StatusBadRequest},                                    // workload required
		{`{"workload":"nope"}`, http.StatusBadRequest},                   // unknown workload
		{`{"workload":"treeadd","config":"ZZZ"}`, http.StatusBadRequest}, // unknown config
		{`{"workload":"treeadd","config":"BCC","compressor":"fpc","functional":true}`, http.StatusCreated},
		{`{"workload":"treeadd","config":"BCC","compressor":"zzz"}`, http.StatusBadRequest}, // unknown scheme
		{`{"workload":"treeadd","config":"CPP","compressor":"fpc"}`, http.StatusBadRequest}, // scheme on CPP
		{`{"workload":"treeadd","scale":-1}`, http.StatusBadRequest},                        // bad scale
		{`{"workload":"treeadd","scale":99999}`, http.StatusBadRequest},                     // absurd scale
		{`{"workload":"treeadd","interval":-5}`, http.StatusBadRequest},                     // bad interval
		{`{"workload":"treeadd","timeout_sec":-1}`, http.StatusBadRequest},                  // bad timeout
		{`{"workload":"treeadd","timeout_sec":1e6}`, http.StatusBadRequest},                 // absurd timeout
		{`{"workload":"treeadd","bogus":1}`, http.StatusBadRequest},                         // unknown field
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != c.code {
			t.Errorf("POST %s: status %d, want %d", c.spec, resp.StatusCode, c.code)
		}
	}

	// Spec violations carry a structured body naming the offending field.
	fields := map[string]string{
		`{"workload":"treeadd","scale":-1}`:       "scale",
		`{"workload":"treeadd","timeout_sec":-1}`: "timeout_sec",
		`{"workload":"treeadd","interval":-5}`:    "interval",
		`{}`:                                      "workload",
		`{"workload":"treeadd","config":"BCC","compressor":"zzz"}`: "compressor",
		`{"workload":"treeadd","config":"BC","compressor":"bdi"}`:  "compressor",
	}
	for spec, field := range fields {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var se SpecError
		if err := json.NewDecoder(resp.Body).Decode(&se); err != nil {
			t.Fatalf("POST %s: undecodable error body: %v", spec, err)
		}
		resp.Body.Close()
		if se.Field != field || se.Msg == "" {
			t.Errorf("POST %s: error body %+v, want field %q", spec, se, field)
		}
	}
}

// TestCompressorSpecRoundtrip pins the compressor axis through the API:
// the default spec canonicalises to the paper's scheme, a zoo scheme on a
// compressing config runs to completion, and the selection reaches the
// result and the fleet group's Prometheus labels.
func TestCompressorSpecRoundtrip(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"mst","config":"BCC","functional":true,"scale":1}`)
	if st.Spec.Compressor != "paper" {
		t.Errorf("default spec compressor = %q, want canonical \"paper\"", st.Spec.Compressor)
	}
	st2 := launch(t, ts, `{"workload":"mst","config":"BCC","compressor":"FPC","functional":true,"scale":1}`)
	if st2.Spec.Compressor != "fpc" {
		t.Errorf("spec compressor = %q, want lower-cased \"fpc\"", st2.Spec.Compressor)
	}
	final := waitDone(t, ts, st2.ID)
	if final.State != StateDone {
		t.Fatalf("BCC@fpc run: state %s (err %q)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Compressor != "fpc" || string(final.Result.Config) != "BCC" {
		t.Fatalf("BCC@fpc result = %+v, want Config BCC, Compressor fpc", final.Result)
	}
	base := waitDone(t, ts, st.ID)
	if base.Result == nil || base.Result.Compressor != "paper" {
		t.Fatalf("default BCC result = %+v, want Compressor paper", base.Result)
	}
	// The schemes share miss behaviour; fpc must move different (here:
	// less) traffic on the same workload.
	if final.Result.L2Misses != base.Result.L2Misses {
		t.Errorf("L2 misses differ across schemes: %d vs %d", final.Result.L2Misses, base.Result.L2Misses)
	}
	if final.Result.MemTrafficWords >= base.Result.MemTrafficWords {
		t.Errorf("fpc traffic %v not below paper traffic %v",
			final.Result.MemTrafficWords, base.Result.MemTrafficWords)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	needle := `cppserved_fleet_runs_total{workload="olden.mst",config="BCC",compressor="fpc",state="done"} 1`
	if !strings.Contains(body, needle) {
		t.Errorf("metrics exposition missing per-scheme labels %s", needle)
	}
}

// TestRunsListAndNotFound covers GET /runs, unknown ids, and the routes
// and spec fields that no longer exist: they answer like any unknown
// route, method or field.
func TestRunsListAndNotFound(t *testing.T) {
	ts, _ := newTestServer(t)
	st := launch(t, ts, `{"workload":"treeadd","config":"CPP","functional":true,"scale":1}`)
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list []RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("GET /runs = %+v", list)
	}

	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/runs/99", http.StatusNotFound},
		{http.MethodGet, "/runs/zip", http.StatusBadRequest},
		{http.MethodGet, "/sweeps/999", http.StatusNotFound},
		{http.MethodGet, "/healthz", http.StatusNotFound},
		{http.MethodGet, "/debug/pprof/", http.StatusNotFound},
		{http.MethodGet, "/debug/pprof/cmdline", http.StatusNotFound},
		{http.MethodGet, "/sweeps", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/sweeps/1", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	resp, err = http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"treeadd","functional":true,"halved":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(body, `unknown field \"halved\"`) {
		t.Errorf("POST /runs with halved: status %d body %q, want 400 naming the unknown field", resp.StatusCode, body)
	}
}

// TestJSONResponsesLabelled: every JSON answer says application/json,
// whatever its status, a 202 and a 201 as much as a 200 or a 400.
func TestJSONResponsesLabelled(t *testing.T) {
	ts, _ := newFaultServer(t, Config{}, stall)
	stalled := launch(t, ts, stallSpec(""))
	waitState(t, ts, stalled.ID, StateRunning)
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/runs", `{"workload":"mst","functional":true,"scale":1}`, http.StatusCreated},
		{http.MethodPost, "/sweeps", `{"workloads":["mst"],"configs":["CPP"],"scales":[1],"functional":true}`, http.StatusAccepted},
		{http.MethodPost, "/runs", `{"workload":"treeadd","scale":-1}`, http.StatusBadRequest},
		{http.MethodPost, "/sweeps", `{"configs":["CPP"]}`, http.StatusBadRequest},
		{http.MethodDelete, fmt.Sprintf("/runs/%d", stalled.ID), "", http.StatusAccepted},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s: status %d, want %d (body %s)", c.method, c.path, resp.StatusCode, c.want, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", c.method, c.path, ct)
		}
		if !json.Valid([]byte(body)) {
			t.Errorf("%s %s: body is not JSON: %q", c.method, c.path, body)
		}
	}
}

// TestDrainRejectsNewRuns checks the graceful-shutdown contract: after
// Drain starts, launches are refused while existing runs complete.
func TestDrainRejectsNewRuns(t *testing.T) {
	ts, reg := newTestServer(t)
	st := launch(t, ts, `{"workload":"treeadd","config":"CPP","functional":true,"scale":1}`)
	if !reg.Drain(30 * time.Second) {
		t.Fatal("drain timed out")
	}
	if got := waitDone(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("pre-drain run state = %s", got.State)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"treeadd","functional":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("post-drain launch: status %d body %q", resp.StatusCode, body)
	}
}

// TestDefaultIntervalApplied checks that the registry forces snapshotting
// so /metrics and the stream always have a series to serve.
func TestDefaultIntervalApplied(t *testing.T) {
	spec, err := normalize(RunSpec{Workload: "treeadd"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Interval != DefaultInterval {
		t.Errorf("interval = %d, want %d", spec.Interval, DefaultInterval)
	}
	if spec.Config != string(cppcache.CPP) {
		t.Errorf("default config = %q, want CPP", spec.Config)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
