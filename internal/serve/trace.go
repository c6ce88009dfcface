package serve

import (
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"cppcache/internal/obs"
	"cppcache/internal/span"
)

// stageSet aggregates span durations per stage name, fed from the span
// tracer's OnEnd hook and rendered on /metrics as the
// cppserved_stage_seconds histogram family: one obs.Histogram of
// nanoseconds per stage, so _sum is the exact total. Stage names come from
// the fixed instrumentation vocabulary (run, admission, queue, execute,
// workload.build, sim.*, sse.stream), so cardinality is bounded by
// construction.
type stageSet struct {
	mu    sync.Mutex
	hists map[string]*obs.Histogram
}

// observe records one completed span. Matches span.Tracer.SetOnEnd.
func (s *stageSet) observe(stage string, d time.Duration) {
	s.mu.Lock()
	if s.hists == nil {
		s.hists = map[string]*obs.Histogram{}
	}
	h := s.hists[stage]
	if h == nil {
		h = obs.NewHistogram(stage)
		s.hists[stage] = h
	}
	h.Observe(d.Nanoseconds())
	s.mu.Unlock()
}

// SpanSeconds returns the observed total seconds and span count for one
// stage (zero when the stage never completed a span). The conservation
// tests reconcile these sums against the span tree itself.
func (s *stageSet) SpanSeconds(stage string) (sum float64, count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.hists[stage]; h != nil {
		return float64(h.Sum) / 1e9, h.Count
	}
	return 0, 0
}

// writeProm renders the family, stages in sorted order for deterministic
// output.
func (s *stageSet) writeProm(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hists := make([]*obs.Histogram, 0, len(s.hists))
	for _, h := range s.hists {
		hists = append(hists, h)
	}
	slices.SortFunc(hists, func(a, b *obs.Histogram) int { return strings.Compare(a.Name, b.Name) })
	obs.WritePrometheus(w, "cppserved_stage_seconds",
		"Wall-clock seconds per run-lifecycle stage, from the span tracer.", "stage", 1e9, hists)
}

// StageSeconds exposes the registry's per-stage totals (see
// stageSet.SpanSeconds); tests use it to prove the histogram family and
// the span tree agree.
func (g *Registry) StageSeconds(stage string) (sum float64, count int64) {
	return g.stages.SpanSeconds(stage)
}

// TraceID returns the run's trace identifier, shared by its status JSON,
// its log lines and every span export.
func (r *Run) TraceID() string { return r.tracer.TraceID() }

// TraceTree renders the run's span tree as indented JSON (the
// GET /runs/{id}/trace default).
func (r *Run) TraceTree() []byte { return r.tracer.Tree() }

// TraceChrome renders the run's spans in Chrome trace_event format
// (?format=chrome).
func (r *Run) TraceChrome() []byte { return r.tracer.Chrome() }

// TraceSpans returns the run's raw span snapshot for tests.
func (r *Run) TraceSpans() []span.SpanData { return r.tracer.Snapshot() }
