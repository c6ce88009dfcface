// Package serve is the simulation observatory: a long-running HTTP
// service that launches simulator runs as supervised jobs, tracks them in
// a registry, and exposes their telemetry while they execute.
//
// Endpoints:
//
//	POST   /runs               launch a job (JSON RunSpec body; ?nocache=1
//	                           bypasses spec-hash memoization for this run)
//	GET    /runs               list runs (?state= filter; created-time order)
//	GET    /runs/{id}          one run's status, totals and final result
//	DELETE /runs/{id}          cancel a queued or running job
//	GET    /runs/{id}/stream   SSE: replay + follow the interval snapshots
//	GET    /runs/{id}/profile  attribution profile (text or collapsed stacks)
//	GET    /runs/{id}/trace    run-lifecycle span tree (?format=chrome)
//	POST   /sweeps             expand a cross-product sweep into child runs
//	GET    /sweeps/{id}        one sweep's aggregate status and children
//	GET    /sweeps/{id}/table  deterministic TSV result table (byte-stable
//	                           across executions of the same sweep)
//	GET    /sweeps/{id}/stream SSE: sweep progress events to completion
//	GET    /fleet              fleet rollup over the run ledger (filters:
//	                           workload, config, compressor, state, since,
//	                           until, window)
//	GET    /fleet/{dimension}  rollup collapsed onto one grouping axis
//	GET    /metrics            Prometheus text exposition over all runs
//	GET    /readyz             readiness (503 before ledger boot-replay
//	                           completes and while draining, Retry-After set)
//
// Counters on /metrics are sums of the per-interval snapshot deltas, so
// at the end of a run they equal the recorder's final totals exactly; the
// SSE stream carries the same deltas, so a client summing them reproduces
// /metrics. Both invariants are test-enforced. When the bounded snapshot
// ring has dropped a stream's requested prefix, the stream says so with an
// explicit "gap" event rather than silently resuming.
//
// A run executes on its own goroutine in one of MaxRunning worker slots,
// whose index its execute span carries. A sweep shares a run's lifecycle
// and fans its children out through sched.Do; a child that a full queue
// turns away waits for a worker slot to free. The cppserved_stage_seconds
// family on /metrics holds one obs.Histogram of span nanoseconds per
// stage: power-of-two buckets sharing one le set per scrape, and an exact
// _sum.
//
// Failure mapping: invalid specs are HTTP 400 with a structured body
// naming the field, a full admission queue is 429 with Retry-After, and a
// draining registry is 503 with Retry-After.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cppcache/internal/ledger"
	"cppcache/internal/span"
)

// sseWriteTimeout is the per-write deadline applied to SSE responses: a
// consumer that cannot absorb an event batch within it is disconnected
// (and counted) instead of parking the handler goroutine forever.
const sseWriteTimeout = 30 * time.Second

// Client pacing advice: every SSE stream opens with a "retry:" line of
// sseRetryMs, and every 429 and 503 carries Retry-After retryAfterSeconds.
const (
	sseRetryMs        = 100
	retryAfterSeconds = "1"
)

// Server wires the registry to an http.Handler.
type Server struct {
	reg *Registry
	log *slog.Logger
	mux *http.ServeMux

	// streamWriteTimeout is the SSE write deadline: sseWriteTimeout, unless
	// a test shrinks it to exercise slow-consumer disconnection.
	streamWriteTimeout time.Duration
}

// NewServer builds the observatory handler around a registry.
func NewServer(reg *Registry, log *slog.Logger) *Server {
	if log == nil {
		log = reg.log
	}
	s := &Server{reg: reg, log: log, mux: http.NewServeMux(), streamWriteTimeout: sseWriteTimeout}
	s.mux.HandleFunc("POST /runs", s.handleLaunch)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRun)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /runs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /sweeps", s.handleSweepLaunch)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleSweep)
	s.mux.HandleFunc("GET /sweeps/{id}/table", s.handleSweepTable)
	s.mux.HandleFunc("GET /sweeps/{id}/stream", s.handleSweepStream)
	s.mux.HandleFunc("GET /fleet", s.handleFleet)
	s.mux.HandleFunc("GET /fleet/{dimension}", s.handleFleet)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler with request logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	s.log.Info("http", "method", r.Method, "path", r.URL.Path, "elapsed", time.Since(start))
}

// handleReadyz is GET /readyz: readiness for new work. It answers 503
// with a Retry-After while the registry is draining or before the boot
// ledger replay finished, so load balancers steer launches elsewhere
// without marking the process dead.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := s.reg.Readiness()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		retryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v as an indented JSON response with the given status.
// Every JSON answer goes through it, so each is labelled application/json
// before the header is sent.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeLaunchError maps an admission error of POST /runs or POST /sweeps
// to its status: a spec violation is a structured 400 naming the field,
// a full queue 429 and a draining registry 503, both with Retry-After.
func writeLaunchError(w http.ResponseWriter, err error) {
	var se *SpecError
	switch {
	case errors.As(err, &se):
		writeJSON(w, http.StatusBadRequest, se)
	case errors.Is(err, ErrQueueFull):
		retryAfter(w)
		jsonError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		retryAfter(w)
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		jsonError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// fromPath resolves the {id} path value through get: 400 when it is not
// a number, 404 when get knows no such id. kind ("run", "sweep") names
// the object in both errors.
func fromPath[T any](w http.ResponseWriter, r *http.Request, kind string, get func(int) (T, bool)) (T, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad %s id %q", kind, r.PathValue("id"))
		var none T
		return none, false
	}
	v, ok := get(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "no %s %d", kind, id)
	}
	return v, ok
}

// retryAfter stamps the Retry-After header of a 429 or 503.
func retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds)
}

// handleLaunch is POST /runs. Spec violations are 400 with the offending
// field; admission backpressure is 429 (queue full) or 503 (draining),
// both with Retry-After. ?nocache=1 forces a real execution even when
// the spec's hash has a memoized result.
func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonError(w, http.StatusBadRequest, "bad run spec: %v", err)
		return
	}
	run, err := s.reg.Launch(spec, r.URL.Query().Get("nocache") == "1")
	if err != nil {
		writeLaunchError(w, err)
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/runs/%d", run.ID))
	writeJSON(w, http.StatusCreated, run.Status())
}

// handleList is GET /runs. ?state= restricts to one lifecycle state
// (unknown states are 400). The listing is in creation order, ties broken
// by run id: the order Registry.Runs keeps, since a run's id and created
// instant are both assigned under the registry lock.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	if err := checkState(stateFilter); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	runs := s.reg.Runs()
	out := make([]RunStatus, 0, len(runs))
	for _, run := range runs {
		st := run.Status()
		if stateFilter != "" && string(st.State) != stateFilter {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRun is GET /runs/{id}.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := fromPath(w, r, "run", s.reg.Get)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Status())
}

// handleCancel is DELETE /runs/{id}: cancel a queued or running job. A
// queued run turns canceled immediately; a running one as soon as the
// simulator's cooperative cancellation check fires. Canceling a terminal
// run is 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := fromPath(w, r, "run", s.reg.Get)
	if !ok {
		return
	}
	if err := s.reg.Cancel(run.ID, "canceled via DELETE /runs/"+strconv.Itoa(run.ID)); err != nil {
		jsonError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Status())
}

// handleProfile is GET /runs/{id}/profile. ?format=collapsed selects the
// flame-graph collapsed-stack rendering.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	run, ok := fromPath(w, r, "run", s.reg.Get)
	if !ok {
		return
	}
	if !run.Spec.Attr {
		jsonError(w, http.StatusNotFound, "run %d was launched without attribution (set \"attr\": true)", run.ID)
		return
	}
	if !run.State().Terminal() {
		jsonError(w, http.StatusConflict, "run %d still %s; profile is available at completion", run.ID, run.State())
		return
	}
	text, collapsed := run.Profile()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("format") == "collapsed" {
		fmt.Fprint(w, collapsed)
		return
	}
	fmt.Fprintf(w, "# run %d: %s on %s (compressor %s)\n",
		run.ID, run.Spec.Workload, run.Spec.Config, run.Spec.Compressor)
	fmt.Fprint(w, text)
}

// handleTrace is GET /runs/{id}/trace: the run's lifecycle span tree as
// indented JSON. ?format=chrome renders Chrome trace_event JSON (load it
// in chrome://tracing or Perfetto).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := fromPath(w, r, "run", s.reg.Get)
	if !ok {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "tree":
		w.Header().Set("Content-Type", "application/json")
		w.Write(run.TraceTree())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Write(run.TraceChrome())
	default:
		jsonError(w, http.StatusBadRequest, "unknown trace format %q (known: tree, chrome)", format)
	}
}

// handleMetrics is GET /metrics: Prometheus text exposition 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	writeBuildInfo(&b, s.reg.LedgerPath())
	writeMetrics(&b, s.reg.Runs(), s.reg.Counters())
	s.reg.stages.writeProm(&b)
	if agg, err := s.reg.FleetAggregate(ledger.Filter{}); err == nil {
		writeFleetMetrics(&b, agg)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// sseStream is one server-sent-events response. Every write runs under
// the stream write deadline and is flushed at once; a write that fails
// counts a slow consumer, calls onSlow and ends the stream.
type sseStream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	onSlow  func(err error)
}

// openSSE sets the event-stream headers and writes the reconnect advice.
// It returns false when the consumer is already gone.
func (s *Server) openSSE(w http.ResponseWriter, onSlow func(err error)) (*sseStream, bool) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	sse := &sseStream{w: w, rc: http.NewResponseController(w), timeout: s.streamWriteTimeout,
		onSlow: func(err error) {
			s.reg.CountSlowStream()
			onSlow(err)
		}}
	return sse, sse.push("retry: %d\n\n", sseRetryMs)
}

// push writes one event batch; false means the consumer was disconnected.
func (sse *sseStream) push(format string, args ...any) bool {
	// ResponseWriters without deadline support (recorders) just skip the
	// deadline; real connections enforce it per batch.
	sse.rc.SetWriteDeadline(time.Now().Add(sse.timeout))
	if _, err := fmt.Fprintf(sse.w, format, args...); err != nil {
		sse.onSlow(err)
		return false
	}
	sse.rc.Flush()
	return true
}

// gap announces that a bounded ring dropped ordinals [next, from) before
// the stream resumes at from.
func (sse *sseStream) gap(next, from int) bool {
	return sse.push("event: gap\ndata: {\"from\":%d,\"resumed\":%d,\"dropped\":%d}\n\n",
		next, from, from-next)
}

// handleStream is GET /runs/{id}/stream: server-sent events. The retained
// interval snapshots are replayed in order, then the handler follows live
// appends until the run reaches a terminal state, closing with an "end"
// event carrying the final status. Event ids are snapshot ordinals. When
// the bounded ring has dropped the requested prefix, a "gap" event names
// the skipped ordinal range before the stream resumes. Every write batch
// runs under a deadline: a consumer that cannot keep up is disconnected
// and counted (cppserved_slow_streams_disconnected_total) instead of
// pinning the handler goroutine.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, ok := fromPath(w, r, "run", s.reg.Get)
	if !ok {
		return
	}
	// The stream gets its own root span on the run's trace (not a child
	// of the run span: a follower can outlive the run's terminal state, so
	// nesting it under "run" would break the child-containment invariant).
	stream := run.tracer.Start("sse.stream", nil, span.Int("run_id", int64(run.ID)))
	defer stream.End()

	sse, ok := s.openSSE(w, func(err error) {
		stream.Event("slow_consumer_disconnected", span.String("err", err.Error()))
		s.log.Warn("slow stream consumer disconnected", "run_id", run.ID,
			"trace_id", run.TraceID(), "err", err)
	})
	if !ok {
		return
	}

	next := 0
	if !follow(r.Context(), &run.lifecycle, func() bool {
		snaps, from := run.SnapsFrom(next)
		if from > next {
			stream.Event("gap",
				span.Int("from", int64(next)),
				span.Int("resumed", int64(from)),
				span.Int("dropped", int64(from-next)))
			if !sse.gap(next, from) {
				return false
			}
			next = from
		}
		for _, snap := range snaps {
			data, err := json.Marshal(snap)
			if err != nil || !sse.push("id: %d\nevent: snapshot\ndata: %s\n\n", next, data) {
				return false
			}
			next++
		}
		return true
	}) {
		return
	}
	final, _ := json.Marshal(run.Status())
	sse.push("event: end\ndata: %s\n\n", final)
}
