package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"cppcache"
	"cppcache/internal/ledger"
	"cppcache/internal/obs"
	"cppcache/internal/span"
)

// RunSpec is the job description accepted by POST /runs.
type RunSpec struct {
	// Workload is a benchmark name or unambiguous dot-suffix ("mst").
	Workload string `json:"workload"`
	// Config is a cache configuration (BC, BCC, HAC, BCP, CPP, VC, LCC).
	Config string `json:"config"`
	// Compressor selects the line-compression scheme for configurations
	// that compress bus transfers (BCC, LCC). "" means the paper's
	// scheme; normalize canonicalises it to an explicit name.
	Compressor string `json:"compressor,omitempty"`
	// Scale multiplies the workload's compute phase (0 = default).
	Scale int `json:"scale,omitempty"`
	// Functional skips the pipeline model (faster; no cycle counts).
	Functional bool `json:"functional,omitempty"`
	// Interval is the metrics snapshot cadence in cycles (ops in
	// functional mode). 0 = DefaultInterval.
	Interval int64 `json:"interval,omitempty"`
	// Attr enables the PC/region attribution profiler.
	Attr bool `json:"attr,omitempty"`
	// TimeoutSec caps the run's execution time in seconds, counted from
	// dispatch (not from time spent queued). 0 = no per-run deadline. A
	// run that exceeds it is terminated cooperatively and marked failed.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// DefaultInterval is the snapshot cadence when RunSpec.Interval is 0. Every
// job snapshots: the metric series is what /metrics and the SSE stream are
// fed from.
const DefaultInterval = 10_000

// Validation bounds for RunSpec fields. Absurd values are rejected with a
// structured 400 rather than admitted against finite memory and CPU.
const (
	MaxScale      = 4096
	MaxInterval   = 1_000_000_000
	MaxTimeoutSec = 3600
)

// RunState is a job's lifecycle phase.
type RunState string

// Job lifecycle states. A run is born queued, becomes running when the
// admission controller dispatches it, and ends in exactly one of done,
// failed or canceled.
const (
	StateQueued   RunState = "queued"
	StateRunning  RunState = "running"
	StateDone     RunState = "done"
	StateFailed   RunState = "failed"
	StateCanceled RunState = "canceled"
)

// States lists every lifecycle state in order.
func States() []RunState {
	return []RunState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SpecError is a RunSpec validation failure, served as HTTP 400 with a
// structured body naming the offending field.
type SpecError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

// Error implements error.
func (e *SpecError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Msg) }

func specErrorf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Admission-control sentinels, mapped to backpressure status codes by the
// HTTP layer.
var (
	// ErrQueueFull: the worker slots and the wait queue are all at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("run queue full; retry later")
	// ErrDraining: the registry is shutting down (HTTP 503).
	ErrDraining = errors.New("registry is draining; not accepting new runs")
)

// Run is one simulation job managed by the registry. All mutable fields
// are guarded by the lifecycle's mu. Snapshots live in a bounded ring:
// consumers address them by ordinal (the index in the full published
// series) and may observe a gap if the ring has dropped old entries.
type Run struct {
	ID   int     `json:"id"`
	Spec RunSpec `json:"spec"`

	specHash string // ledger.SpecHash of Spec, "" if it cannot be hashed

	lifecycle
	started     time.Time
	errMsg      string
	cancelCause string
	cancel      context.CancelFunc // non-nil while running
	result      *cppcache.Result
	attrText    string
	attrColl    string

	// Memoization provenance: a memoized run never executed — it replayed
	// the terminal state of run memoRun (trace memoTrace).
	memoized  bool
	memoRun   int
	memoTrace string

	// Lifecycle spans. The tracer is created at admission and the spans
	// are opened/closed with the exact instants stamped on created/
	// started/finished, so span durations reconcile with the registry
	// timestamps to the nanosecond: root "run" = [created, finished],
	// "queue" = [created, started], "execute" = [started, finished].
	tracer  *span.Tracer
	root    *span.Span
	queueSp *span.Span
	execSp  *span.Span

	// Snapshot ring: snaps[snapHead..] wrapping, snapCount entries, the
	// oldest of which is ordinal snapBase in the published series. The
	// backing slice grows lazily toward snapRing.
	snaps       []obs.Snapshot
	snapHead    int
	snapCount   int
	snapBase    int
	snapDropped int64
	totals      obs.Snapshot // running column sums of ALL published snaps
}

// RunStatus is the JSON shape served for one run.
type RunStatus struct {
	ID               int              `json:"id"`
	TraceID          string           `json:"trace_id,omitempty"`
	Spec             RunSpec          `json:"spec"`
	State            RunState         `json:"state"`
	Created          time.Time        `json:"created"`
	Started          *time.Time       `json:"started,omitempty"`
	Finished         *time.Time       `json:"finished,omitempty"`
	Error            string           `json:"error,omitempty"`
	Intervals        int              `json:"intervals"`
	SnapshotsDropped int64            `json:"snapshots_dropped,omitempty"`
	Totals           obs.Snapshot     `json:"totals"`
	Result           *cppcache.Result `json:"result,omitempty"`

	// Memoized marks a run served from the spec-hash memo store;
	// MemoSourceRun/MemoSourceTrace identify the execution it replayed.
	Memoized        bool   `json:"memoized,omitempty"`
	MemoSourceRun   int    `json:"memo_source_run,omitempty"`
	MemoSourceTrace string `json:"memo_source_trace,omitempty"`
}

// Config sizes the registry's admission control and persistence.
type Config struct {
	// MaxRunning bounds concurrently executing simulations (the worker
	// slots). 0 = DefaultMaxRunning.
	MaxRunning int
	// MaxQueue bounds runs waiting for a worker slot. 0 = DefaultMaxQueue.
	MaxQueue int
	// Ledger, when non-nil, receives one durable record per terminal run
	// (fsync'd append). Nil disables persistence; the in-memory fleet
	// rollup is always maintained.
	Ledger *ledger.Writer
	// MemoEntries bounds the spec-hash memo store (LRU). 0 disables
	// memoization entirely: every admitted run executes.
	MemoEntries int
}

// Admission-control defaults.
const (
	DefaultMaxRunning = 4
	DefaultMaxQueue   = 32
)

// Retention bounds. A run keeps at most snapRing interval snapshots; older
// ones are dropped (and counted) once the ring fills. Beyond retainRuns
// terminal runs the oldest are evicted (and counted), and beyond
// retainSweeps terminal sweeps the oldest are forgotten.
const (
	snapRing     = 4096
	retainRuns   = 256
	retainSweeps = 32
)

func (c Config) withDefaults() Config {
	if c.MaxRunning <= 0 {
		c.MaxRunning = DefaultMaxRunning
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	return c
}

// Counters are the registry's own operational counters, exposed on
// /metrics alongside the per-run simulation series.
type Counters struct {
	Running            int
	QueueDepth         int
	PanicsRecovered    int64
	RunsEvicted        int64
	RejectedQueueFull  int64
	RejectedDraining   int64
	SlowStreamsDropped int64
	SnapshotsDropped   int64 // summed over retained runs plus evicted ones
	LedgerErrors       int64 // ledger appends that failed (runs unaffected)

	// Memo-store counters (all zero when memoization is off). Hits+Misses
	// equals admitted runs exactly — the conservation the memo tests pin.
	MemoHits        int64
	MemoMisses      int64
	MemoEntries     int
	MemoFullEntries int
	MemoDigestDrift int64
	MemoEvictions   int64
}

// Registry launches and tracks simulation jobs and the sweeps that fan
// out over them, under supervision: a bounded set of worker slots with a
// FIFO wait queue, per-run deadlines and cancellation, panic isolation,
// bounded snapshot retention and eviction of old terminal runs and sweeps.
type Registry struct {
	cfg Config
	log *slog.Logger

	// simulate executes one run; NewRegistryWith sets it to cppcache.Run.
	// Tests wrap it to stall, panic or cancel a run from inside the real
	// simulation.
	simulate func(context.Context, string, cppcache.CacheConfig, cppcache.Options) (cppcache.Result, *cppcache.Observation, error)

	// stages aggregates span durations per stage across every run, the
	// source of the cppserved_stage_seconds histogram family.
	stages stageSet

	// fleet is the cross-run rollup: one ledger record per terminal run,
	// replayed records included, queryable via /fleet and cppledger.
	fleet *ledger.Rollup

	// memo is the spec-hash result cache (nil when Config.MemoEntries is
	// 0).
	memo *memoStore

	mu       sync.Mutex
	runs     map[int]*Run
	order    []int
	queue    []int  // ids of queued runs, FIFO
	running  int    // busy worker slots
	busy     []bool // busy[i]: worker slot i executes a run; len MaxRunning
	next     int
	closed   bool // draining: no run or sweep is admitted
	notReady bool // true until boot replay completes (SetReady)
	pending  sync.WaitGroup

	// room is closed and replaced whenever a worker slot frees, which is
	// when a full queue takes another run; sweep children turned away by
	// a full queue wait on it.
	room chan struct{}

	sweeps     map[int]*Sweep
	sweepOrder []int
	nextSweep  int

	panics        int64
	evicted       int64
	rejectedFull  int64
	rejectedDrain int64
	slowStreams   int64
	evictedDrops  int64 // snapshot drops of evicted runs, so the counter survives eviction
	ledgerErrors  int64 // failed ledger appends (the run itself is unaffected)
}

// NewRegistry builds an empty registry with default supervision limits. A
// nil logger discards job logs.
func NewRegistry(log *slog.Logger) *Registry {
	return NewRegistryWith(Config{}, log)
}

// NewRegistryWith builds an empty registry with explicit limits.
func NewRegistryWith(cfg Config, log *slog.Logger) *Registry {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	cfg = cfg.withDefaults()
	g := &Registry{
		cfg:       cfg,
		log:       log,
		simulate:  cppcache.Run,
		runs:      make(map[int]*Run),
		busy:      make([]bool, cfg.MaxRunning),
		next:      1,
		room:      make(chan struct{}),
		sweeps:    make(map[int]*Sweep),
		nextSweep: 1,
		fleet:     ledger.NewRollup(),
	}
	if cfg.MemoEntries > 0 {
		g.memo = newMemoStore(cfg.MemoEntries)
	}
	return g
}

// SetReady flips the registry's boot-readiness. cppserved starts the
// listener before replaying the ledger and calls SetReady(true) once the
// replay (and fleet/memo seeding) completes, so /readyz answers 503
// during the boot window. Registries built by tests are ready from birth.
func (g *Registry) SetReady(ready bool) {
	g.mu.Lock()
	g.notReady = !ready
	g.mu.Unlock()
}

// Readiness reports whether the registry should accept traffic, with a
// machine-readable reason when it should not ("draining", "booting").
func (g *Registry) Readiness() (ready bool, reason string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.closed:
		return false, "draining"
	case g.notReady:
		return false, "booting"
	}
	return true, ""
}

// normalize validates and canonicalises a spec, resolving workload
// suffixes and upper-casing the configuration. Violations come back as
// *SpecError (HTTP 400).
func normalize(spec RunSpec) (RunSpec, error) {
	if spec.Workload == "" {
		return spec, specErrorf("workload", "workload is required")
	}
	resolved, err := cppcache.ResolveBenchmark(spec.Workload)
	if err != nil {
		return spec, specErrorf("workload", "%v", err)
	}
	spec.Workload = resolved
	if spec.Config == "" {
		spec.Config = "CPP"
	}
	cfg, ok := cppcache.KnownConfig(spec.Config)
	if !ok {
		return spec, specErrorf("config", "unknown configuration %q", spec.Config)
	}
	spec.Config = string(cfg)
	scheme, ok := cppcache.KnownCompressor(spec.Compressor)
	if !ok {
		return spec, specErrorf("compressor", "unknown compression scheme %q (known: %s)",
			spec.Compressor, strings.Join(cppcache.Compressors(), ", "))
	}
	if err := cppcache.ValidateCompressor(cfg, scheme); err != nil {
		return spec, specErrorf("compressor", "%v", err)
	}
	spec.Compressor = scheme
	if spec.Scale < 0 || spec.Scale > MaxScale {
		return spec, specErrorf("scale", "scale must be in [0, %d], got %d", MaxScale, spec.Scale)
	}
	if spec.Interval < 0 || spec.Interval > MaxInterval {
		return spec, specErrorf("interval", "interval must be in [0, %d], got %d", MaxInterval, spec.Interval)
	}
	if spec.Interval == 0 {
		spec.Interval = DefaultInterval
	}
	if spec.TimeoutSec < 0 || spec.TimeoutSec > MaxTimeoutSec {
		return spec, specErrorf("timeout_sec", "timeout_sec must be in [0, %d], got %g", MaxTimeoutSec, spec.TimeoutSec)
	}
	return spec, nil
}

// Launch validates spec and admits a run: dispatched immediately when a
// worker slot is free, queued when the wait queue has room, rejected with
// ErrQueueFull/ErrDraining otherwise. It returns the registered run
// immediately.
//
// When memoization is on and a full memo entry matches the spec's content
// hash, the run is born terminal (done) with the original's snapshots,
// totals, result and profile — served in microseconds, no worker slot
// consumed, marked memoized with the source run/trace IDs. noCache (the
// ?nocache=1 escape hatch) skips the lookup: the run executes, and its own
// terminal result still refreshes the store. Runs only enter the store
// from real completions.
func (g *Registry) Launch(spec RunSpec, noCache bool) (*Run, error) {
	spec, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	specHash, _ := ledger.SpecHash(spec)

	g.mu.Lock()
	if g.closed {
		g.rejectedDrain++
		g.mu.Unlock()
		return nil, ErrDraining
	}
	if g.memo != nil && specHash != "" && !noCache {
		if e := g.memo.lookup(specHash); e != nil {
			// A hit bypasses admission control entirely: no slot, no queue
			// capacity, just a terminal run built from the cached entry.
			g.memo.countHit()
			run, rec := g.newMemoRunLocked(spec, e)
			g.evictLocked()
			g.mu.Unlock()
			g.log.Info("run memoized", "run_id", run.ID, "trace_id", run.TraceID(),
				"workload", spec.Workload, "config", spec.Config,
				"source_run", e.runID, "source_trace", e.traceID)
			g.appendLedger(rec)
			return run, nil
		}
	}
	if running, queued := g.running, len(g.queue); running >= g.cfg.MaxRunning && queued >= g.cfg.MaxQueue {
		g.rejectedFull++
		g.mu.Unlock()
		return nil, fmt.Errorf("%w (%d running, %d queued)", ErrQueueFull, running, queued)
	}
	if g.memo != nil {
		// Counted only after admission succeeds, so hits+misses equals
		// admitted runs exactly (rejections count neither).
		g.memo.countMiss()
	}
	run, admit := g.newRunLocked(spec, specHash)
	if g.running < g.cfg.MaxRunning {
		g.startLocked(run)
	} else {
		admit.SetAttrs(span.Bool("queued", true))
		g.queue = append(g.queue, run.ID)
		g.log.Info("run queued", "run_id", run.ID, "trace_id", run.TraceID(),
			"workload", spec.Workload, "config", spec.Config, "queue_depth", len(g.queue))
	}
	admit.End()
	g.mu.Unlock()
	return run, nil
}

// newRunLocked registers a queued run created now. Its root, admission
// and queue spans open at the exact created instant, so span intervals
// and registry timestamps reconcile to the nanosecond; memoAttrs follow
// the root span's own attributes. It returns the run and its open
// admission span. Callers hold g.mu.
func (g *Registry) newRunLocked(spec RunSpec, specHash string, memoAttrs ...span.Attr) (*Run, *span.Span) {
	t0 := time.Now()
	tracer := span.New(0)
	tracer.SetOnEnd(g.stages.observe)
	run := &Run{
		ID:        g.next,
		Spec:      spec,
		specHash:  specHash,
		lifecycle: lifecycle{state: StateQueued, created: t0},
		tracer:    tracer,
	}
	attrs := append([]span.Attr{
		span.Int("run_id", int64(run.ID)),
		span.String("workload", spec.Workload),
		span.String("config", spec.Config),
		span.String("compressor", spec.Compressor),
	}, memoAttrs...)
	run.root = tracer.StartAt("run", nil, t0, attrs...)
	admit := run.root.StartChildAt("admission", t0)
	run.queueSp = run.root.StartChildAt("queue", t0)
	g.next++
	g.runs[run.ID] = run
	g.order = append(g.order, run.ID)
	return run, admit
}

// newMemoRunLocked registers a run that is born terminal, rebuilt from a
// full memo entry, and returns it with its ledger record. Every invariant
// a real run satisfies holds here too: the snapshot series, totals,
// result and profile are the original's byte-for-byte; span timestamps
// reconcile exactly (queue and execute are both zero-width at the
// admission instant, so queue+execute == run to the nanosecond); and the
// run is in the fleet rollup before anyone can look it up. Callers hold
// g.mu.
func (g *Registry) newMemoRunLocked(spec RunSpec, e *memoEntry) (*Run, ledger.Record) {
	run, admit := g.newRunLocked(spec, e.specHash,
		span.Bool("memoized", true),
		span.Int("memo_source_run", int64(e.runID)))
	run.mu.Lock()
	defer run.mu.Unlock()
	t0 := run.created
	run.state = StateDone
	run.started, run.finished = t0, t0
	run.memoized, run.memoRun, run.memoTrace = true, e.runID, e.traceID
	run.snaps = append([]obs.Snapshot(nil), e.snaps...)
	run.snapCount, run.snapBase, run.snapDropped = len(e.snaps), e.snapBase, e.snapDropped
	run.totals, run.result = e.totals, e.result
	run.attrText, run.attrColl = e.attrText, e.attrColl
	run.execSp = run.root.StartChildAt("execute", t0, span.Bool("memoized", true))
	admit.EndAt(t0)
	run.endSpansLocked(t0)
	return run, g.recordLocked(run)
}

// startLocked dispatches a queued run onto its own goroutine in the
// lowest free worker slot, whose index the execute span carries as its
// worker attribute. Callers hold g.mu and have checked that a slot is
// free. It reports false if the run was no longer dispatchable (canceled
// while queued).
func (g *Registry) startLocked(run *Run) bool {
	run.mu.Lock()
	if run.state != StateQueued {
		run.mu.Unlock()
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	if run.Spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(context.Background(),
			time.Duration(run.Spec.TimeoutSec*float64(time.Second)))
	}
	slot := slices.Index(g.busy, false)
	started := time.Now()
	run.state = StateRunning
	run.started = started
	run.cancel = cancel
	// The queue span closes and the execute span opens at the same
	// started instant the status JSON reports.
	run.queueSp.EndAt(started)
	run.execSp = run.root.StartChildAt("execute", started, span.Int("worker", int64(slot)))
	run.notifyLocked()
	run.mu.Unlock()

	g.busy[slot] = true
	g.running++
	g.pending.Add(1)
	g.log.Info("run launched", "run_id", run.ID, "trace_id", run.TraceID(),
		"workload", run.Spec.Workload,
		"config", run.Spec.Config, "compressor", run.Spec.Compressor,
		"functional", run.Spec.Functional,
		"interval", run.Spec.Interval, "attr", run.Spec.Attr,
		"timeout_sec", run.Spec.TimeoutSec)
	go g.execute(run, slot, ctx, cancel)
	return true
}

// execute runs one simulation job to a terminal state. It owns the
// goroutine: a panic anywhere below is recovered into StateFailed with
// the captured stack, never a process crash.
func (g *Registry) execute(run *Run, slot int, ctx context.Context, cancel context.CancelFunc) {
	start := time.Now()
	defer g.pending.Done()
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			run.execSp.Event("panic", span.String("value", fmt.Sprint(p)))
			g.fail(run, fmt.Errorf("panic: %v\n\n%s", p, stack))
			g.mu.Lock()
			g.panics++
			g.mu.Unlock()
			g.log.Error("run panicked; isolated", "run_id", run.ID, "trace_id", run.TraceID(),
				"panic", fmt.Sprint(p), "elapsed", time.Since(start))
		}
		// Every execute path (done, failed, canceled, panicked) is terminal
		// and ledgered here: release the worker slot.
		g.onFinished(slot)
	}()

	spec := run.Spec
	opts := cppcache.Options{
		Scale:          spec.Scale,
		FunctionalOnly: spec.Functional,
		Compressor:     spec.Compressor,
		Observe: &cppcache.ObserveOptions{
			IntervalCycles: spec.Interval,
			Attr:           spec.Attr,
			OnSnapshot:     run.appendSnapshot,
		},
		Span: run.execSp,
	}
	res, ob, err := g.simulate(ctx, spec.Workload, cppcache.CacheConfig(spec.Config), opts)
	switch {
	case err == nil:
		g.finish(run, StateRunning, func(r *Run) {
			r.state = StateDone
			r.result = &res
			if ob.AttrEnabled() {
				r.attrText = ob.AttrText(10)
				r.attrColl = ob.AttrCollapsed()
			}
		})
		g.log.Info("run done", "run_id", run.ID, "trace_id", run.TraceID(),
			"elapsed", time.Since(start),
			"l1_misses", res.L1Misses, "traffic_words", res.MemTrafficWords)
	case errors.Is(err, context.DeadlineExceeded):
		g.fail(run, fmt.Errorf("run exceeded its %gs deadline", spec.TimeoutSec))
		g.log.Warn("run deadline expired", "run_id", run.ID, "trace_id", run.TraceID(),
			"timeout_sec", spec.TimeoutSec, "elapsed", time.Since(start))
	case errors.Is(err, context.Canceled):
		g.finish(run, StateRunning, func(r *Run) { r.cancelLocked("canceled") })
		g.log.Info("run canceled", "run_id", run.ID, "trace_id", run.TraceID(),
			"cause", run.CancelCause(), "elapsed", time.Since(start))
	default:
		g.fail(run, err)
		g.log.Error("run failed", "run_id", run.ID, "trace_id", run.TraceID(),
			"err", err, "elapsed", time.Since(start))
	}
}

// finish moves run from state from to the terminal state set assigns,
// reporting whether run was still in from. The run's fleet record and,
// for a real completion, its memo entry are stored while run.mu is held,
// before waiters wake: whoever sees the run terminal also finds it in
// /fleet and the memo. The fsync'd ledger append comes after the flip, so
// disk latency stays out of the run's turnaround.
func (g *Registry) finish(run *Run, from RunState, set func(r *Run)) (ok bool) {
	var rec ledger.Record
	// Deferred first, so it runs after the unlock below.
	defer func() {
		if ok {
			g.appendLedger(rec)
		}
	}()
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.state != from {
		return false
	}
	run.finished = time.Now()
	set(run)
	run.endSpansLocked(run.finished)
	rec = g.recordLocked(run)
	run.notifyLocked()
	return true
}

// fail moves a running run to failed.
func (g *Registry) fail(run *Run, err error) {
	g.finish(run, StateRunning, func(r *Run) {
		r.state = StateFailed
		r.errMsg = err.Error()
	})
}

// cancelQueued cancels run if it is still waiting for a worker slot,
// reporting whether it did.
func (g *Registry) cancelQueued(run *Run, cause string) bool {
	return g.finish(run, StateQueued, func(r *Run) { r.cancelLocked(cause) })
}

// onFinished releases the worker slot, dispatches queued work, wakes the
// sweep children waiting for room and applies the retention policy.
func (g *Registry) onFinished(slot int) {
	g.mu.Lock()
	g.busy[slot] = false
	g.running--
	g.scheduleLocked()
	close(g.room)
	g.room = make(chan struct{})
	g.evictLocked()
	g.mu.Unlock()
}

// scheduleLocked dispatches queued runs while worker slots are free,
// skipping runs canceled while they waited. Callers hold g.mu.
func (g *Registry) scheduleLocked() {
	for g.running < g.cfg.MaxRunning && len(g.queue) > 0 {
		id := g.queue[0]
		g.queue = g.queue[1:]
		if run, ok := g.runs[id]; ok {
			g.startLocked(run)
		}
	}
}

// evictLocked enforces retainRuns: beyond it, the oldest terminal runs
// are forgotten (404 afterwards) and counted. Callers hold g.mu.
func (g *Registry) evictLocked() {
	g.order = retainLocked(g.order, g.runs, retainRuns, func(run *Run) {
		g.evicted++
		g.evictedDrops += run.SnapshotsDropped()
		g.log.Info("run evicted", "run_id", run.ID, "trace_id", run.TraceID())
	})
}

// Cancel requests cancellation of a run: a queued run is canceled on the
// spot; a running one is signaled through its context and reaches the
// canceled state as soon as the simulator's cooperative check fires. It
// returns an error if the run is already terminal.
func (g *Registry) Cancel(id int, cause string) error {
	run, ok := g.Get(id)
	if !ok {
		return fmt.Errorf("no run %d", id)
	}
	if cause == "" {
		cause = "canceled"
	}
	if g.cancelQueued(run, cause) {
		g.log.Info("queued run canceled", "run_id", id, "trace_id", run.TraceID(), "cause", cause)
		return nil
	}
	// Not queued, so running or terminal: a run never returns to the queue.
	run.mu.Lock()
	switch {
	case run.state == StateRunning:
		run.cancelCause = cause
		cancel := run.cancel
		run.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		state := run.state
		run.mu.Unlock()
		return fmt.Errorf("run %d is already %s", id, state)
	}
}

// Get returns the run with the given id.
func (g *Registry) Get(id int) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	run, ok := g.runs[id]
	return run, ok
}

// Runs returns every retained run in launch order.
func (g *Registry) Runs() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.runs[id])
	}
	return out
}

// Counters returns the registry's operational counters.
func (g *Registry) Counters() Counters {
	g.mu.Lock()
	c := Counters{
		Running:            g.running,
		QueueDepth:         len(g.queue),
		PanicsRecovered:    g.panics,
		RunsEvicted:        g.evicted,
		RejectedQueueFull:  g.rejectedFull,
		RejectedDraining:   g.rejectedDrain,
		SlowStreamsDropped: g.slowStreams,
		SnapshotsDropped:   g.evictedDrops,
		LedgerErrors:       g.ledgerErrors,
	}
	runs := make([]*Run, 0, len(g.order))
	for _, id := range g.order {
		runs = append(runs, g.runs[id])
	}
	g.mu.Unlock()
	for _, run := range runs {
		c.SnapshotsDropped += run.SnapshotsDropped()
	}
	ms := g.memo.stats()
	c.MemoHits = ms.Hits
	c.MemoMisses = ms.Misses
	c.MemoEntries = ms.Entries
	c.MemoFullEntries = ms.Full
	c.MemoDigestDrift = ms.Drift
	c.MemoEvictions = ms.Evictions
	return c
}

// CountSlowStream records one SSE consumer disconnected for not keeping
// up with its write deadline.
func (g *Registry) CountSlowStream() {
	g.mu.Lock()
	g.slowStreams++
	g.mu.Unlock()
}

// Drain stops accepting new runs and sweeps, cancels every sweep and
// everything still queued, and waits for the running jobs. If they have
// not finished after 80% of the timeout, they are force-canceled through
// their contexts (the simulator's cooperative checks make that prompt) and
// granted the remaining 20%. It reports whether everything drained in
// time.
func (g *Registry) Drain(timeout time.Duration) bool {
	// Admission closes and every sweep is canceled in one critical
	// section, so a sweep child that meets the closed registry belongs to
	// a canceled sweep: its sweep stops feeding children, fans the cancel
	// out to the child runs, and ends canceled, not done and degraded.
	g.mu.Lock()
	g.closed = true
	for _, sw := range g.sweeps {
		sw.cancel()
	}
	queued := g.queue
	g.queue = nil
	g.mu.Unlock()
	for _, id := range queued {
		if run, ok := g.Get(id); ok && g.cancelQueued(run, "server draining") {
			g.log.Info("queued run canceled", "run_id", id, "trace_id", run.TraceID(),
				"cause", "server draining")
		}
	}

	done := make(chan struct{})
	go func() {
		g.pending.Wait()
		close(done)
	}()
	grace := timeout / 5
	select {
	case <-done:
		return true
	case <-time.After(timeout - grace):
	}

	// Cooperative wait expired: cancel the stragglers and give them the
	// remaining grace period to unwind.
	for _, run := range g.Runs() {
		run.mu.Lock()
		var cancel context.CancelFunc
		if run.state == StateRunning {
			if run.cancelCause == "" {
				run.cancelCause = "server draining"
			}
			cancel = run.cancel
		}
		run.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	select {
	case <-done:
		return true
	case <-time.After(grace):
		return false
	}
}

// appendSnapshot publishes one interval delta into the bounded ring. It
// runs on the simulation goroutine (via ObserveOptions.OnSnapshot), which
// hands the series to the registry and keeps no copy of its own, so the
// ring bounds a run's snapshot memory (ring-dropped prefixes are
// counted).
func (r *Run) appendSnapshot(s obs.Snapshot) {
	r.mu.Lock()
	if r.snapCount < snapRing {
		// Growth phase: the ring has never wrapped, so snapHead is 0 and
		// the slice simply extends toward snapRing.
		r.snaps = append(r.snaps, s)
		r.snapCount++
	} else {
		// Ring full: overwrite the oldest and account the drop.
		r.snaps[r.snapHead] = s
		r.snapHead = (r.snapHead + 1) % len(r.snaps)
		r.snapBase++
		r.snapDropped++
	}
	addSnapshot(&r.totals, s)
	r.notifyLocked()
	r.mu.Unlock()
}

// addSnapshot accumulates one interval delta into a totals block. Counter
// fields sum; the PagesTouched gauge takes the latest sample.
func addSnapshot(t *obs.Snapshot, s obs.Snapshot) {
	t.Cycle = s.Cycle // last snapshot time
	t.Instructions += s.Instructions
	t.L1Accesses += s.L1Accesses
	t.L1Misses += s.L1Misses
	t.L2Accesses += s.L2Accesses
	t.L2Misses += s.L2Misses
	t.MemReadHalves += s.MemReadHalves
	t.MemWriteHalves += s.MemWriteHalves
	t.AffHits += s.AffHits
	t.AffWordsPrefetched += s.AffWordsPrefetched
	t.Promotions += s.Promotions
	t.PfBufHits += s.PfBufHits
	t.PfIssued += s.PfIssued
	t.FillWords += s.FillWords
	t.FillCompWords += s.FillCompWords
	t.ROBOccSum += s.ROBOccSum
	t.ROBOccSamples += s.ROBOccSamples
	t.PagesTouched = s.PagesTouched
}

// endSpansLocked closes the run's lifecycle spans at the terminal
// instant. EndAt is idempotent, so spans already closed on the normal
// path (queue at dispatch) are untouched, while a run canceled straight
// out of the queue closes its queue span here. Callers hold r.mu.
func (r *Run) endSpansLocked(at time.Time) {
	r.queueSp.EndAt(at)
	r.execSp.EndAt(at)
	r.root.EndAt(at)
}

// cancelLocked moves the run to canceled. A cause recorded earlier (by
// DELETE or a drain) wins over cause. Callers hold r.mu.
func (r *Run) cancelLocked(cause string) {
	r.state = StateCanceled
	if r.cancelCause == "" {
		r.cancelCause = cause
	}
	r.errMsg = r.cancelCause
}

// CancelCause returns the recorded cancellation cause ("" if none).
func (r *Run) CancelCause() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelCause
}

// Status returns the run's JSON-ready view.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunStatus{
		ID:               r.ID,
		TraceID:          r.tracer.TraceID(),
		Spec:             r.Spec,
		State:            r.state,
		Created:          r.created,
		Error:            r.errMsg,
		Intervals:        r.snapBase + r.snapCount,
		SnapshotsDropped: r.snapDropped,
		Totals:           r.totals,
		Result:           r.result,
		Memoized:         r.memoized,
		MemoSourceRun:    r.memoRun,
		MemoSourceTrace:  r.memoTrace,
		Started:          optTime(r.started),
		Finished:         optTime(r.finished),
	}
}

// Totals returns the column sums of the published snapshots.
func (r *Run) Totals() obs.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// SnapshotsDropped returns how many old snapshots the bounded ring has
// discarded.
func (r *Run) SnapshotsDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapDropped
}

// Profile returns the attribution outputs ("" when attribution was off or
// the run has not finished).
func (r *Run) Profile() (text, collapsed string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attrText, r.attrColl
}

// SnapsFrom returns a copy of the retained snapshots at ordinal >= i and
// the ordinal of the first returned snapshot (> i exactly when the ring
// has dropped the requested prefix).
func (r *Run) SnapsFrom(i int) (snaps []obs.Snapshot, from int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapsFromLocked(i)
}

// snapsFromLocked is SnapsFrom's copy of the retained snapshots. Callers
// hold r.mu.
func (r *Run) snapsFromLocked(i int) (snaps []obs.Snapshot, from int) {
	from = i
	if from < r.snapBase {
		from = r.snapBase
	}
	total := r.snapBase + r.snapCount
	if from < total {
		snaps = make([]obs.Snapshot, 0, total-from)
		for ord := from; ord < total; ord++ {
			snaps = append(snaps, r.snaps[(r.snapHead+(ord-r.snapBase))%len(r.snaps)])
		}
	}
	return snaps, from
}
