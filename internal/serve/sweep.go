package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cppcache"
	"cppcache/internal/ledger"
	"cppcache/internal/sched"
)

// SweepSpec is the POST /sweeps body: a cross-product of run parameters
// expanded into deduplicated child runs. Workloads and configs are
// required; compressors default to the scheme default ("") and scales to
// the workload default (0).
type SweepSpec struct {
	Workloads   []string `json:"workloads"`
	Configs     []string `json:"configs"`
	Compressors []string `json:"compressors,omitempty"`
	Scales      []int    `json:"scales,omitempty"`
	// Functional, Interval and TimeoutSec apply to every child run.
	Functional bool    `json:"functional,omitempty"`
	Interval   int64   `json:"interval,omitempty"`
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// MaxSweepProduct bounds the raw cross-product size of one sweep; larger
// products are a structured 400, never a half-admitted batch.
const MaxSweepProduct = 512

// SweepDone is the state of a finished sweep, StateDone's string. It is
// untyped, so it compares with a RunState and with a state decoded as a
// plain string alike.
const SweepDone = "done"

// sweepChild is one deduplicated cell of the cross-product.
type sweepChild struct {
	Spec     RunSpec  `json:"spec"`
	SpecHash string   `json:"spec_hash"`
	State    RunState `json:"state"`
	RunID    int      `json:"run_id,omitempty"`
	TraceID  string   `json:"trace_id,omitempty"`
	Memoized bool     `json:"memoized,omitempty"`
	Digest   string   `json:"result_digest,omitempty"`
	Error    string   `json:"error,omitempty"`

	result *cppcache.Result // deterministic columns for the table
}

// skippedCombo is a cross-product cell that failed spec validation
// (e.g. a compressor incompatible with a config). Skips are reported, not
// fatal: the sweep runs the valid remainder.
type skippedCombo struct {
	Workload   string `json:"workload"`
	Config     string `json:"config"`
	Compressor string `json:"compressor,omitempty"`
	Scale      int    `json:"scale,omitempty"`
	Reason     string `json:"reason"`
}

// Sweep is one admitted batch. It has a run's lifecycle: running from
// admission until every child is terminal, then done (possibly degraded)
// or canceled. All mutable state is guarded by the lifecycle's mu, and
// every change wakes its followers (SSE progress).
type Sweep struct {
	ID   int       `json:"id"`
	Spec SweepSpec `json:"spec"`

	lifecycle
	children []*sweepChild
	skipped  []skippedCombo
	deduped  int // cross-product cells collapsed into an earlier child
	degraded bool
	cancel   context.CancelFunc
}

// SweepStatus is the JSON shape served for one sweep.
type SweepStatus struct {
	ID       int            `json:"id"`
	Spec     SweepSpec      `json:"spec"`
	State    RunState       `json:"state"`
	Created  time.Time      `json:"created"`
	Finished *time.Time     `json:"finished,omitempty"`
	Degraded bool           `json:"degraded,omitempty"`
	Total    int            `json:"total"`
	Counts   map[string]int `json:"counts"`
	Memoized int            `json:"memoized"`
	Deduped  int            `json:"deduped,omitempty"`
	Skipped  []skippedCombo `json:"skipped,omitempty"`
	Children []sweepChild   `json:"children"`
}

// Status returns the sweep's JSON-ready view.
func (sw *Sweep) Status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:       sw.ID,
		Spec:     sw.Spec,
		State:    sw.state,
		Created:  sw.created,
		Degraded: sw.degraded,
		Total:    len(sw.children),
		Counts:   map[string]int{},
		Deduped:  sw.deduped,
		Skipped:  append([]skippedCombo(nil), sw.skipped...),
		Finished: optTime(sw.finished),
	}
	for _, ch := range sw.children {
		st.Counts[string(ch.State)]++
		if ch.Memoized {
			st.Memoized++
		}
		st.Children = append(st.Children, *ch)
	}
	return st
}

// progress is the compact rollup pushed on the sweep SSE stream.
func (sw *Sweep) progress() []byte {
	st := sw.Status()
	data, _ := json.Marshal(map[string]any{
		"sweep_id": st.ID,
		"state":    st.State,
		"total":    st.Total,
		"counts":   st.Counts,
		"memoized": st.Memoized,
		"degraded": st.Degraded,
	})
	return data
}

// Table renders the sweep's deterministic aggregate table: one TSV row
// per child, sorted by (workload, config, compressor, scale), carrying
// only deterministic columns (spec tuple, state, result digest, counter
// totals). No timestamps and no run IDs — so every execution of the same
// sweep, memoized or not, yields a byte-identical table. The CI
// sweep-smoke job compares three such tables.
func (sw *Sweep) Table() string {
	sw.mu.Lock()
	children := make([]*sweepChild, len(sw.children))
	copy(children, sw.children)
	sw.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		a, b := children[i].Spec, children[j].Spec
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Compressor != b.Compressor {
			return a.Compressor < b.Compressor
		}
		return a.Scale < b.Scale
	})
	var b strings.Builder
	b.WriteString("workload\tconfig\tcompressor\tscale\tstate\tresult_digest\tcycles\tinstructions\tl1_misses\tl2_misses\ttraffic_words\n")
	for _, ch := range children {
		var cycles, insts, l1m, l2m int64
		var traffic float64
		if ch.result != nil {
			cycles, insts = ch.result.Cycles, ch.result.Instructions
			l1m, l2m = ch.result.L1Misses, ch.result.L2Misses
			traffic = ch.result.MemTrafficWords
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%g\n",
			ch.Spec.Workload, ch.Spec.Config, ch.Spec.Compressor, ch.Spec.Scale,
			ch.State, ch.Digest, cycles, insts, l1m, l2m, traffic)
	}
	return b.String()
}

// expandSweep turns the cross-product into deduplicated, normalized child
// specs. Invalid cells are recorded as skips; a bound violation or an
// all-invalid product is a *SpecError (HTTP 400).
func (g *Registry) expandSweep(spec SweepSpec) (children []*sweepChild, skipped []skippedCombo, deduped int, err error) {
	if len(spec.Workloads) == 0 {
		return nil, nil, 0, specErrorf("workloads", "at least one workload is required")
	}
	if len(spec.Configs) == 0 {
		return nil, nil, 0, specErrorf("configs", "at least one config is required")
	}
	compressors := spec.Compressors
	if len(compressors) == 0 {
		compressors = []string{""}
	}
	scales := spec.Scales
	if len(scales) == 0 {
		scales = []int{0}
	}
	product := len(spec.Workloads) * len(spec.Configs) * len(compressors) * len(scales)
	if product > MaxSweepProduct {
		return nil, nil, 0, specErrorf("product",
			"cross-product of %d workloads x %d configs x %d compressors x %d scales is %d runs, exceeding the %d bound",
			len(spec.Workloads), len(spec.Configs), len(compressors), len(scales),
			product, MaxSweepProduct)
	}

	seen := map[string]bool{}
	for _, wl := range spec.Workloads {
		for _, cfg := range spec.Configs {
			for _, comp := range compressors {
				for _, scale := range scales {
					rs := RunSpec{
						Workload: wl, Config: cfg, Compressor: comp, Scale: scale,
						Functional: spec.Functional, Interval: spec.Interval,
						TimeoutSec: spec.TimeoutSec,
					}
					norm, nerr := normalize(rs)
					if nerr != nil {
						skipped = append(skipped, skippedCombo{
							Workload: wl, Config: cfg, Compressor: comp, Scale: scale,
							Reason: nerr.Error(),
						})
						continue
					}
					hash, herr := ledger.SpecHash(norm)
					if herr != nil {
						skipped = append(skipped, skippedCombo{
							Workload: wl, Config: cfg, Compressor: comp, Scale: scale,
							Reason: fmt.Sprintf("spec hash: %v", herr),
						})
						continue
					}
					if seen[hash] {
						deduped++
						continue
					}
					seen[hash] = true
					children = append(children, &sweepChild{
						Spec: norm, SpecHash: hash, State: StateQueued,
					})
				}
			}
		}
	}
	if len(children) == 0 {
		reason := "no combinations supplied"
		if len(skipped) > 0 {
			reason = fmt.Sprintf("every combination was invalid; first: %s", skipped[0].Reason)
		}
		return nil, nil, 0, specErrorf("spec", "%s", reason)
	}
	return children, skipped, deduped, nil
}

// LaunchSweep expands, validates and admits a sweep, then executes it on
// a background engine goroutine. Children run through the registry's own
// admission control, at most MaxRunning at once; a child turned away by a
// full queue waits for a worker slot. A child failure degrades the sweep;
// it never aborts it. Admitting a sweep forgets the oldest terminal ones
// beyond retainSweeps.
func (g *Registry) LaunchSweep(spec SweepSpec) (*Sweep, error) {
	children, skipped, deduped, err := g.expandSweep(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sw := &Sweep{
		Spec:      spec,
		lifecycle: lifecycle{state: StateRunning, created: time.Now()},
		children:  children,
		skipped:   skipped,
		deduped:   deduped,
		cancel:    cancel,
	}
	g.mu.Lock()
	if g.closed {
		g.rejectedDrain++
		g.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	sw.ID = g.nextSweep
	g.nextSweep++
	g.sweeps[sw.ID] = sw
	g.sweepOrder = retainLocked(append(g.sweepOrder, sw.ID), g.sweeps, retainSweeps, nil)
	g.mu.Unlock()
	g.log.Info("sweep launched", "sweep_id", sw.ID, "children", len(children),
		"skipped", len(skipped), "deduped", deduped)
	go g.runSweep(sw, ctx)
	return sw, nil
}

// runSweep drives every child to a terminal state, then finalises the
// sweep: done when all children ended, degraded if any failed or were
// canceled, canceled when cancellation was requested before completion.
func (g *Registry) runSweep(sw *Sweep, ctx context.Context) {
	sched.Do(len(sw.children), g.cfg.MaxRunning, nil, nil, func(i int) error {
		g.runSweepChild(ctx, sw, sw.children[i])
		return nil
	})

	sw.mu.Lock()
	canceled := ctx.Err() != nil
	allCanceled := true
	for _, ch := range sw.children {
		if ch.State == StateFailed || ch.State == StateCanceled {
			sw.degraded = true
		}
		if ch.State != StateCanceled {
			allCanceled = false
		}
	}
	if canceled && allCanceled {
		sw.state = StateCanceled
	} else {
		sw.state = StateDone
	}
	sw.finished = time.Now()
	state, degraded := sw.state, sw.degraded
	sw.notifyLocked()
	sw.mu.Unlock()
	g.log.Info("sweep finished", "sweep_id", sw.ID, "state", state, "degraded", degraded)
}

// updateChild applies fn to the child under the sweep lock and notifies
// progress waiters.
func (sw *Sweep) updateChild(ch *sweepChild, fn func(*sweepChild)) {
	sw.mu.Lock()
	fn(ch)
	sw.notifyLocked()
	sw.mu.Unlock()
}

// runSweepChild executes one child through the registry: launch, then
// follow the run to its terminal state. A child that a full queue turns
// away waits for a worker slot to free, then asks again. Cancellation of
// the sweep ends that wait, or fans out to the child's run.
func (g *Registry) runSweepChild(ctx context.Context, sw *Sweep, ch *sweepChild) {
	var run *Run
	for {
		if ctx.Err() != nil {
			sw.updateChild(ch, func(c *sweepChild) {
				c.State = StateCanceled
				c.Error = "sweep canceled"
			})
			return
		}
		// Taken before the launch, so a slot that frees between a refusal
		// and the wait still wakes the child.
		g.mu.Lock()
		room := g.room
		g.mu.Unlock()
		var err error
		run, err = g.Launch(ch.Spec, false)
		if err == nil {
			break
		}
		if errors.Is(err, ErrQueueFull) {
			select {
			case <-room:
			case <-ctx.Done(): // the loop finishes the child as canceled
			}
			continue
		}
		// A draining registry cancels the child, as Drain cancels the
		// queued runs. An internal error fails it: the sweep degrades and
		// the rest of the batch continues.
		sw.updateChild(ch, func(c *sweepChild) {
			if errors.Is(err, ErrDraining) {
				c.State, c.Error = StateCanceled, "server draining"
			} else {
				c.State, c.Error = StateFailed, err.Error()
			}
		})
		return
	}

	sw.updateChild(ch, func(c *sweepChild) {
		c.State = StateRunning
		c.RunID = run.ID
		c.TraceID = run.TraceID()
	})

	nop := func() bool { return true }
	if !follow(ctx, &run.lifecycle, nop) {
		// The sweep was canceled: cancel the run and wait for it to end,
		// which cooperative cancellation makes prompt.
		g.Cancel(run.ID, fmt.Sprintf("sweep %d canceled", sw.ID))
		follow(context.Background(), &run.lifecycle, nop)
	}

	st := run.Status()
	var digest string
	if st.Result != nil {
		digest, _ = ledger.ResultDigest(st.Result)
	}
	sw.updateChild(ch, func(c *sweepChild) {
		c.State = st.State
		c.Memoized = st.Memoized
		c.Digest = digest
		c.Error = st.Error
		c.result = st.Result
	})
}

// GetSweep returns the sweep with the given id.
func (g *Registry) GetSweep(id int) (*Sweep, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sw, ok := g.sweeps[id]
	return sw, ok
}
