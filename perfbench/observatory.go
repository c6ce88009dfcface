package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cppcache/internal/ledger"
	"cppcache/internal/memsys"
	"cppcache/internal/serve"
	"cppcache/internal/sim"
	"cppcache/internal/span"
	"cppcache/internal/workload"
)

// observatory is an in-process cppserved behind loopback HTTP: one
// simulation at a time (MaxRunning 1), the spec-hash memo on and the
// ledger on. One client runs a closed loop of sessions modelled on the
// EXPERIMENTS walkthroughs: submit a small scale-1 run and follow its SSE
// stream to the end, resubmit an earlier spec (a memo hit), launch a
// sweep and fetch its table, or read /fleet, /metrics or a run's trace.
// It is the only workload that runs internal/serve, internal/ledger and
// the span exporter, and its many short runs make per-run construction
// cost count. With one client, no second client's simulation overlaps
// the serving path being timed.
//
// Every pass boots a fresh server and runs the same sessions, so every
// pass does the same work from the same state. The seed and the pass
// number draw the order of the sessions and the specs resubmitted; the
// mix itself is fixed, so every seed does the same amount of work, and
// pooling passes averages over many orders. Sweep specs never repeat a
// submitted spec, so every sweep child simulates.

// serveLayerMetrics are the serve, ledger and span per-layer metrics; the
// simulator-only workloads report them as 0.
var serveLayerMetrics = []struct{ name, unit string }{
	{"serve.queue_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.runs_post_ms_p50", "ms"},
	{"serve.sweeps_post_ms_p50", "ms"},
	{"serve.sweep_table_ms_p50", "ms"},
	{"serve.fleet_ms_p50", "ms"},
	{"serve.metrics_ms_p50", "ms"},
	{"serve.trace_ms_p50", "ms"},
	{"serve.memo_hit_frac", "ratio"},
	{"serve.metrics_kb", "KiB"},
	{"serve.share", "ratio"},
	{"ledger.append_us", "us"},
	{"ledger.spec_hash_us", "us"},
	{"ledger.replay_ms", "ms"},
	{"span.export_ms", "ms"},
}

// memoEntries sizes the memo so no entry is evicted within a pass.
const memoEntries = 4096

// obsServer is one booted observatory.
type obsServer struct {
	reg    *serve.Registry
	srv    *http.Server
	base   string
	ledger *ledger.Writer
	served chan error
}

// bootServer starts a fresh observatory the way cppserved boots: open the
// ledger, replay it into the registry, then serve on a loopback port.
func bootServer(ledgerPath string) (*obsServer, error) {
	if err := os.Remove(ledgerPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	w, err := ledger.OpenWriter(ledgerPath)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistryWith(serve.Config{MaxRunning: 1, MemoEntries: memoEntries, Ledger: w}, nil)
	recs, _, err := ledger.Replay(ledgerPath)
	if err != nil {
		w.Close()
		return nil, err
	}
	reg.SeedFleet(recs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		return nil, err
	}
	s := &obsServer{
		reg:    reg,
		srv:    &http.Server{Handler: serve.NewServer(reg, nil), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		ledger: w,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener, waits for the serve loop, drains the registry
// and closes the ledger.
func (s *obsServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if !s.reg.Drain(10*time.Second) && err == nil {
		err = fmt.Errorf("observatory drain timed out")
	}
	if cerr := s.ledger.Close(); err == nil {
		err = cerr
	}
	return err
}

// obsPass is one pass's client state.
type obsPass struct {
	admitted  int64 // runs the registry admitted: POST /runs 201s plus sweep children
	executed  []executedRun
	requests  int64
	routeMs   map[string][]float64
	digests   map[string]string // spec key -> result digest, this pass
	traces    []runTrace        // traced pass only
	insts     int64
	accesses  int64
	metricsKB []float64
}

// executedRun is one run the client launched: functional, at scale 1,
// with full miss penalties.
type executedRun struct {
	id                        int
	bench, config, compressor string
}

// key names the run's spec for digest bookkeeping.
func (r executedRun) key() string {
	return r.bench + "|" + r.config + "|" + r.compressor
}

// spec is the run's POST /runs body.
func (r executedRun) spec() serve.RunSpec {
	return serve.RunSpec{Workload: r.bench, Config: r.config, Compressor: r.compressor, Scale: 1, Functional: true}
}

// simConfig is the run's scheme-qualified simulator configuration.
func (r executedRun) simConfig() string { return sim.WithCompressor(r.config, r.compressor) }

// runTrace is the server's span breakdown of one executed run.
type runTrace struct {
	queueMs, simMs, turnMs float64 // turnMs is 0 for sweep children
}

// observatory holds the state shared by all passes of a run.
type observatory struct {
	b       *bench
	dir     string
	progLen map[string]int64
	memOps  map[string]int64

	digests map[string]string // spec key -> result digest, all passes
	tamper  bool              // doctor the first memo-hit digest (self-test)
}

// checkDigest holds a spec's result digest the same wherever it appears.
func (o *observatory) checkDigest(where, key, digest string) {
	want, ok := o.digests[key]
	if !ok {
		o.digests[key] = digest
	}
	o.b.check(!ok || want == digest, "%s: %s result digest %s, earlier %s", where, key, digest, want)
}

func runObservatory(b *bench) error {
	// At least 2000 requests a run: p95 has 100 beyond it. (p99 would be
	// the slowest /metrics reads alone, set by GC pauses and host bursts.)
	b.tailQ = 0.95
	sc := b.sc
	o := &observatory{
		b:       b,
		dir:     filepath.Join(outDir, fmt.Sprintf("observatory-%d", os.Getpid())),
		progLen: map[string]int64{},
		memOps:  map[string]int64{},
		digests: map[string]string{},
		tamper:  sc.tamper == "digest",
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.dir)
	var progs map[string]*workload.Program
	if err := b.timeSetup(func(keep bool) error {
		p, err := b.buildPrograms(sc.obsProgs, 1, keep)
		if err != nil {
			return err
		}
		progs = p
		s, err := bootServer(filepath.Join(o.dir, "boot.ndjson"))
		if err != nil {
			return err
		}
		return s.close()
	}); err != nil {
		return err
	}
	for n, p := range progs {
		o.progLen[n] = int64(p.Len())
		o.memOps[n] = countMemOps(p)
	}
	b.extra["scales"] = []int{1}
	var tracedPass *obsPass
	err := b.measure(func(p int, sp *span.Span) (passSample, error) {
		ps, err := o.pass(p, sp)
		if err != nil {
			return passSample{}, err
		}
		if sp != nil {
			tracedPass = ps
		}
		return passSample{insts: ps.insts, accesses: ps.accesses, requests: ps.requests}, nil
	}, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.reqMs) >= sc.minRequests && len(b.turnMs) >= sc.minTurnarounds
	})
	if err != nil {
		return err
	}
	if b.traced {
		o.ledgerLayers(o.ledgerPath(1))
		return o.layers(tracedPass, progs)
	}
	return nil
}

// ledgerPath is pass p's ledger file. The traced pass's (p == 1) outlives
// the pass, for ledgerLayers.
func (o *observatory) ledgerPath(p int) string {
	return filepath.Join(o.dir, fmt.Sprintf("ledger-%d.ndjson", p))
}

// pass boots a fresh observatory, runs the client's sessions to the end,
// checks the memo counters and shuts the server down.
func (o *observatory) pass(p int, sp *span.Span) (*obsPass, error) {
	b := o.b
	srv, err := bootServer(o.ledgerPath(p))
	if err != nil {
		return nil, err
	}
	ps := &obsPass{routeMs: map[string][]float64{}, digests: map[string]string{}}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	c := &obsClient{o: o, ps: ps, hc: hc, base: srv.base,
		rng: rand.New(rand.NewSource(b.seed*7919 + int64(p)*104729)), sp: sp}
	c.run(sessionPlan(b.sc.obsProgs, c.rng))

	// The memo counters must conserve: hits plus misses equal admitted runs.
	status, body, err := do(hc, "GET", srv.base+"/metrics", nil)
	b.op(err)
	if err == nil {
		hits, misses := promValue(body, "cppserved_memo_hits_total"), promValue(body, "cppserved_memo_misses_total")
		b.check(status == http.StatusOK && hits+misses == float64(ps.admitted),
			"pass %d: /metrics memo hits %v + misses %v != %d admitted runs", p, hits, misses, ps.admitted)
		if sp != nil {
			b.layers.serve["serve.memo_hit_frac"] = ratio(hits, hits+misses)
		}
	}
	transport.CloseIdleConnections()
	if err := srv.close(); err != nil {
		return nil, err
	}
	d := newDigester()
	keys := make([]string, 0, len(ps.digests))
	for k := range ps.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.add(k, ps.digests[k])
	}
	b.passDigest(p, d.sum())
	return ps, nil
}

// obsClient is the closed-loop client.
type obsClient struct {
	o    *observatory
	ps   *obsPass
	hc   *http.Client
	base string
	rng  *rand.Rand
	sp   *span.Span // traced pass parent, nil otherwise
	done []executedRun
	// memoSafe counts the done runs certainly in the memo. A run turns
	// done just before the registry stores it in the memo, so a
	// resubmission right after its end event can miss; but with one worker
	// slot, a later run only starts after that store. Runs done before the
	// latest completed submission are therefore safe to resubmit.
	memoSafe int
	lastRun  int
}

// session is one step of the client's closed loop.
type session struct {
	kind  string          // "submit", "resubmit", "sweep" or a read route
	run   executedRun     // submit
	sweep serve.SweepSpec // sweep
}

// zooSchemes are the non-paper compressors the sweeps cover.
var zooSchemes = []string{"cpack", "fpc", "bdi"}

// sessionPlan is the client's sessions for a pass. Each weight follows
// the EXPERIMENTS walkthroughs (Observatory, Tracing, Fleet observability,
// Sweep fabric). Per program:
//   - 7 cold submissions, every configuration once, functionally: the
//     Observatory, Tracing and Fleet walkthroughs submit functional runs
//     (pipeline runs are what figures times);
//   - 1 sweep, the program's compressor-zoo row (BCC under cpack, fpc and
//     bdi): the Sweep-fabric walkthrough's functional sweep, narrowed to
//     one program;
//   - 7 resubmissions, one per cold submission: the Sweep-fabric
//     walkthrough resubmits its spec once and gets a memo hit;
//   - 8 reads each of /runs/{id}/trace, /fleet and /metrics, one of each
//     per cold job: the walkthroughs follow their runs with /metrics
//     (Observatory, Fleet, Sweep fabric), the run's trace (Tracing) and
//     the fleet rollup (Fleet).
//
// The seed shuffles the order; the first two sessions are submissions, so
// a resubmission always has a memo entry to hit and a trace read a run to
// read.
func sessionPlan(progs []string, rng *rand.Rand) []session {
	var submits, rest []session
	for _, p := range progs {
		for _, cfg := range trafficConfigs {
			submits = append(submits, session{kind: "submit", run: executedRun{bench: p, config: cfg}})
			rest = append(rest, session{kind: "resubmit"})
		}
		rest = append(rest, session{kind: "sweep", sweep: serve.SweepSpec{Workloads: []string{p},
			Configs: []string{"BCC"}, Compressors: zooSchemes, Scales: []int{1}, Functional: true}})
		for i := 0; i < len(trafficConfigs)+1; i++ {
			rest = append(rest, session{kind: "trace"}, session{kind: "fleet"}, session{kind: "metrics"})
		}
	}
	rng.Shuffle(len(submits), func(i, j int) { submits[i], submits[j] = submits[j], submits[i] })
	plan := append(submits[2:], rest...)
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return append(submits[:2:2], plan...)
}

// run executes the client's sessions in order.
func (c *obsClient) run(plan []session) {
	for _, s := range plan {
		switch s.kind {
		case "submit":
			c.submit(s.run)
		case "resubmit":
			c.resubmit()
		case "sweep":
			c.sweep(s.sweep)
		default:
			c.read(s.kind)
		}
	}
}

// request issues one non-streaming request, records its latency sample
// and counts it; any error or non-2xx status fails it.
func (c *obsClient) request(route, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	sp := c.sp.StartChild("http."+route, span.String("path", path))
	t := time.Now()
	status, data, err := do(c.hc, method, c.base+path, rd)
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	sp.End()
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, strings.TrimSpace(string(data)))
	}
	c.o.b.op(err)
	if err != nil {
		return status, data, err
	}
	if c.sp == nil {
		c.o.b.request(ms)
	}
	c.ps.requests++
	c.ps.routeMs[route] = append(c.ps.routeMs[route], ms)
	return status, data, nil
}

// runStatus is the part of serve.RunStatus the client checks.
type runStatus struct {
	ID       int             `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Memoized bool            `json:"memoized"`
	Result   json.RawMessage `json:"result"`
}

// submit launches a cold run (?nocache=1) and follows its SSE stream to
// the terminal event.
func (c *obsClient) submit(r executedRun) {
	spec := r.spec()
	sess := c.sp.StartChild("session.submit", span.String("workload", r.bench), span.String("config", r.config))
	defer sess.End()
	t := time.Now()
	_, data, err := c.request("runs_post", "POST", "/runs?nocache=1", spec)
	if err != nil {
		return
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		c.o.b.check(false, "POST /runs: bad status JSON: %v", err)
		return
	}
	c.ps.admitted++
	end, err := c.follow(fmt.Sprintf("/runs/%d/stream", st.ID))
	turn := float64(time.Since(t)) / float64(time.Millisecond)
	c.o.b.op(err)
	if err != nil {
		return
	}
	if err := json.Unmarshal(end, &st); err != nil || st.State != string(serve.StateDone) {
		c.o.b.check(false, "run %d (%s): ended %q %s", st.ID, r.key(), st.State, st.Error)
		return
	}
	if c.sp == nil {
		c.o.b.turnaround(turn)
	}
	r.id = st.ID
	c.record(r, st.Result, "run")
	c.executed(r, turn)
	c.memoSafe = len(c.done)
	c.done = append(c.done, r)
	c.lastRun = st.ID
}

// resubmit launches a spec the client saw complete: a memo hit that must
// equal the run it replays.
func (c *obsClient) resubmit() {
	if c.memoSafe == 0 {
		// Only when the plan's opening submissions failed.
		c.o.b.op(fmt.Errorf("resubmission with no completed run to resubmit"))
		return
	}
	r := c.done[c.rng.Intn(c.memoSafe)]
	sess := c.sp.StartChild("session.resubmit", span.String("workload", r.bench), span.String("config", r.config))
	defer sess.End()
	_, data, err := c.request("runs_post", "POST", "/runs", r.spec())
	if err != nil {
		return
	}
	c.ps.admitted++
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		c.o.b.check(false, "POST /runs: bad status JSON: %v", err)
		return
	}
	key := r.key()
	c.o.b.check(st.Memoized && st.State == string(serve.StateDone), "resubmitted %s: memoized=%v state=%s, want a memo hit", key, st.Memoized, st.State)
	digest, err := ledger.ResultDigest(st.Result)
	if c.o.tamper {
		// Self-test hook: doctor the first memo-hit digest.
		c.o.tamper = false
		digest = "doctored-" + digest
	}
	c.o.b.check(err == nil && digest == c.ps.digests[key], "memo hit for %s: digest %s, replayed run %s", key, digest, c.ps.digests[key])
	c.o.checkDigest("memo hit", key, digest)
}

// sweep launches a sweep, follows its progress stream to the end and
// fetches its table.
func (c *obsClient) sweep(spec serve.SweepSpec) {
	sess := c.sp.StartChild("session.sweep", span.String("workload", spec.Workloads[0]))
	defer sess.End()
	t := time.Now()
	_, data, err := c.request("sweeps_post", "POST", "/sweeps", spec)
	if err != nil {
		return
	}
	var sw struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(data, &sw); err != nil {
		c.o.b.check(false, "POST /sweeps: bad status JSON: %v", err)
		return
	}
	end, err := c.follow(fmt.Sprintf("/sweeps/%d/stream", sw.ID))
	turn := float64(time.Since(t)) / float64(time.Millisecond)
	c.o.b.op(err)
	if err != nil {
		return
	}
	var fin struct {
		State    string `json:"state"`
		Degraded bool   `json:"degraded"`
		Children []struct {
			Spec     serve.RunSpec `json:"spec"`
			State    string        `json:"state"`
			RunID    int           `json:"run_id"`
			Memoized bool          `json:"memoized"`
		} `json:"children"`
	}
	if err := json.Unmarshal(end, &fin); err != nil || fin.State != serve.SweepDone || fin.Degraded {
		c.o.b.check(false, "sweep %d ended %q degraded=%v (%v)", sw.ID, fin.State, fin.Degraded, err)
		return
	}
	if c.sp == nil {
		c.o.b.turnaround(turn)
	}
	c.ps.admitted += int64(len(fin.Children))
	_, table, err := c.request("sweep_table", "GET", fmt.Sprintf("/sweeps/%d/table", sw.ID), nil)
	if err != nil {
		return
	}
	digests := parseSweepTable(table)
	for _, ch := range fin.Children {
		r := executedRun{id: ch.RunID, bench: ch.Spec.Workload, config: ch.Spec.Config,
			compressor: ch.Spec.Compressor}
		key := r.key()
		d, ok := digests[key]
		c.o.b.check(ok && ch.State == string(serve.StateDone), "sweep %d: child %s state %s, table row present=%v", sw.ID, key, ch.State, ok)
		if !ok {
			continue
		}
		c.ps.digests[key] = d
		c.o.checkDigest("sweep row", key, d)
		if !ch.Memoized {
			c.executed(r, 0)
		}
		c.done = append(c.done, r)
	}
}

// read issues one of the observatory's read-only requests.
func (c *obsClient) read(route string) {
	switch route {
	case "metrics":
		_, data, err := c.request(route, "GET", "/metrics", nil)
		if err == nil {
			c.ps.metricsKB = append(c.ps.metricsKB, float64(len(data))/1024)
		}
	case "trace":
		c.request(route, "GET", fmt.Sprintf("/runs/%d/trace", c.lastRun), nil)
	default:
		c.request(route, "GET", "/fleet", nil)
	}
}

// record checks and stores an executed run's result digest.
func (c *obsClient) record(r executedRun, result json.RawMessage, where string) {
	digest, err := ledger.ResultDigest(result)
	c.o.b.check(err == nil && len(result) > 0, "run %d: no result", r.id)
	key := r.key()
	c.ps.digests[key] = digest
	c.o.checkDigest(where, key, digest)
}

// executed counts a run that really simulated; in the traced pass it
// pulls the server's own spans for the run into the benchmark's trace.
func (c *obsClient) executed(r executedRun, turnMs float64) {
	c.ps.executed = append(c.ps.executed, r)
	c.ps.insts += c.o.progLen[r.bench]
	c.ps.accesses += c.o.memOps[r.bench]
	if c.sp == nil {
		return
	}
	status, data, err := do(c.hc, "GET", fmt.Sprintf("%s/runs/%d/trace", c.base, r.id), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /runs/%d/trace: HTTP %d", r.id, status)
	}
	c.o.b.op(err)
	if err != nil {
		return
	}
	rt, err := importTrace(c.sp, data)
	c.o.b.op(err)
	rt.turnMs = turnMs
	c.ps.traces = append(c.ps.traces, rt)
}

// follow reads an SSE stream to its "end" event and returns its data.
func (c *obsClient) follow(path string) (json.RawMessage, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("GET %s: stream ended without an end event: %w", path, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "end" && strings.HasPrefix(line, "data: "):
			return json.RawMessage(strings.TrimPrefix(line, "data: ")), nil
		case line == "":
			event = ""
		}
	}
}

// do performs one HTTP request and reads the whole body.
func do(hc *http.Client, method, url string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// promValue reads an unlabelled sample from a Prometheus exposition (-1
// when absent).
func promValue(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return -1
}

// parseSweepTable maps "workload|config|compressor" to each row's result
// digest, for rows in state done.
func parseSweepTable(tsv []byte) map[string]string {
	out := map[string]string{}
	lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
	if len(lines) == 0 {
		return out
	}
	col := map[string]int{}
	for i, h := range strings.Split(lines[0], "\t") {
		col[h] = i
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, "\t")
		if len(f) != len(col) || f[col["state"]] != string(serve.StateDone) {
			continue
		}
		out[f[col["workload"]]+"|"+f[col["config"]]+"|"+f[col["compressor"]]] = f[col["result_digest"]]
	}
	return out
}

// treeSpan is the part of the server's span tree the benchmark reads.
type treeSpan struct {
	Name          string      `json:"name"`
	StartUnixNano int64       `json:"start_unix_nano"`
	EndUnixNano   int64       `json:"end_unix_nano"`
	DurationNS    int64       `json:"duration_ns"`
	Children      []*treeSpan `json:"children"`
}

// importTrace copies a run's server-side span tree under parent and
// returns its queue and simulation time.
func importTrace(parent *span.Span, data []byte) (runTrace, error) {
	var tree struct {
		Spans []*treeSpan `json:"spans"`
	}
	var rt runTrace
	if err := json.Unmarshal(data, &tree); err != nil {
		return rt, fmt.Errorf("run trace: %w", err)
	}
	var walk func(s *treeSpan, p *span.Span)
	walk = func(s *treeSpan, p *span.Span) {
		ms := float64(s.DurationNS) / 1e6
		switch {
		case s.Name == "queue":
			rt.queueMs += ms
		case strings.HasPrefix(s.Name, "sim."):
			rt.simMs += ms
		}
		cp := parent.Tracer().StartAt("server."+s.Name, p, time.Unix(0, s.StartUnixNano))
		for _, ch := range s.Children {
			walk(ch, cp)
		}
		if s.EndUnixNano != 0 {
			cp.EndAt(time.Unix(0, s.EndUnixNano))
		}
	}
	for _, s := range tree.Spans {
		walk(s, parent)
	}
	return rt, nil
}

// ledgerLayers times the ledger on the traced pass's own records, after
// the timed passes: a boot replay of the file, the spec hash of every
// record, and a fresh fsync'd append of every record.
func (o *observatory) ledgerLayers(path string) {
	b := o.b
	sp := b.root.StartChild("ledger.replay")
	t := time.Now()
	recs, stats, err := ledger.Replay(path)
	b.layers.serve["ledger.replay_ms"] = float64(time.Since(t)) / 1e6
	sp.End()
	b.op(err)
	b.check(stats.Skipped == 0, "ledger %s: %d damaged records", path, stats.Skipped)
	if err != nil || len(recs) == 0 {
		return
	}
	sp = b.root.StartChild("ledger.spec_hash")
	t = time.Now()
	for _, r := range recs {
		spec := serve.RunSpec{Workload: r.Workload, Config: r.Config, Compressor: r.Compressor,
			Scale: r.Scale, Functional: r.Functional, Interval: serve.DefaultInterval}
		if _, err := ledger.SpecHash(spec); err != nil {
			b.op(err)
		}
	}
	b.layers.serve["ledger.spec_hash_us"] = float64(time.Since(t)) / 1e3 / float64(len(recs))
	sp.End()
	w, err := ledger.OpenWriter(path + ".copy")
	b.op(err)
	if err != nil {
		return
	}
	sp = b.root.StartChild("ledger.append")
	t = time.Now()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			b.op(err)
		}
	}
	b.layers.serve["ledger.append_us"] = float64(time.Since(t)) / 1e3 / float64(len(recs))
	sp.End()
	b.op(w.Close())
}

// layers turns the traced pass into per-layer numbers: server spans give
// queueing and simulation time, the client's own spans the per-route
// latency, and a local replay of every executed run, under its own
// compressor, the simulator layers.
func (o *observatory) layers(ps *obsPass, progs map[string]*workload.Program) error {
	b := o.b
	l := &b.layers
	if ps == nil {
		return fmt.Errorf("observatory: no traced pass")
	}
	l.traceRuns = len(ps.traces)
	var queue, overhead []float64
	for _, rt := range ps.traces {
		queue = append(queue, rt.queueMs)
		l.passSim += rt.simMs / 1e3
		if rt.turnMs > 0 {
			overhead = append(overhead, rt.turnMs-rt.simMs)
		}
	}
	l.serve["serve.queue_ms_p50"] = median(queue)
	l.serve["serve.overhead_ms_p50"] = median(overhead)
	for _, route := range []string{"runs_post", "sweeps_post", "sweep_table", "fleet", "metrics", "trace"} {
		l.serve["serve."+route+"_ms_p50"] = median(ps.routeMs[route])
	}
	l.serve["serve.metrics_kb"] = median(ps.metricsKB)
	seen := map[string]bool{}
	lat := memsys.DefaultLatencies()
	for _, r := range ps.executed {
		// The server's result is not the full statistics block; a local
		// functional run of the same spec is the replay's reference.
		cfg := r.simConfig()
		ref, err := sim.RunFunctional(progs[r.bench], cfg, lat)
		if err == nil {
			err = b.functionalLayers(progs[r.bench], cfg, lat, ref.Mem)
		}
		b.op(err)
		if err != nil {
			continue
		}
		b.check(ref.Mem.L1.Accesses == o.memOps[r.bench], "%s/%s: %d L1 accesses, program has %d memory ops",
			r.bench, cfg, ref.Mem.L1.Accesses, o.memOps[r.bench])
		l.observeRun(cfg, &ref.Mem)
		if !seen[r.bench] {
			seen[r.bench] = true
			b.dataLayers(r.bench, progAccesses(progs[r.bench]))
		}
	}
	b.buildLayers()
	return nil
}
