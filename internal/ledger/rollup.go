package ledger

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cppcache/internal/obs"
)

// Dimensions are the grouping axes a rollup understands, in canonical
// order.
var Dimensions = []string{"workload", "config", "compressor", "state"}

// KnownDimension reports whether dim is a valid grouping axis.
func KnownDimension(dim string) bool {
	for _, d := range Dimensions {
		if d == dim {
			return true
		}
	}
	return false
}

// Filter restricts which records participate in an aggregation. Empty
// string fields match everything; zero times are open-ended.
type Filter struct {
	Workload   string
	Config     string
	Compressor string
	State      string
	// Since/Until bound Record.Finished (inclusive since, exclusive
	// until).
	Since time.Time
	Until time.Time
}

// ParseFilter builds a Filter from its text form, shared by the /fleet
// query parameters and cppledger's flags: label matches (empty matches
// everything), an absolute window (since, until; RFC 3339) or a relative
// one (window: a positive Go duration ending now, exclusive with since
// and until). The state is matched as a string, never checked against a
// vocabulary, so a replay keeps records of states it does not know.
func ParseFilter(workload, config, compressor, state, since, until, window string) (Filter, error) {
	f := Filter{Workload: workload, Config: config, Compressor: compressor, State: state}
	var err error
	if since != "" {
		if f.Since, err = time.Parse(time.RFC3339, since); err != nil {
			return Filter{}, fmt.Errorf("bad since %q: %v", since, err)
		}
	}
	if until != "" {
		if f.Until, err = time.Parse(time.RFC3339, until); err != nil {
			return Filter{}, fmt.Errorf("bad until %q: %v", until, err)
		}
	}
	if window != "" {
		if !f.Since.IsZero() || !f.Until.IsZero() {
			return Filter{}, fmt.Errorf("window is exclusive with since/until")
		}
		d, err := time.ParseDuration(window)
		if err != nil || d <= 0 {
			return Filter{}, fmt.Errorf("bad window %q (want a positive Go duration like 1h)", window)
		}
		f.Since = time.Now().Add(-d)
	}
	return f, nil
}

func (f Filter) match(r Record) bool {
	if f.Workload != "" && r.Workload != f.Workload {
		return false
	}
	if f.Config != "" && r.Config != f.Config {
		return false
	}
	if f.Compressor != "" && r.Compressor != f.Compressor {
		return false
	}
	if f.State != "" && r.State != f.State {
		return false
	}
	if !f.Since.IsZero() && r.Finished.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !r.Finished.Before(f.Until) {
		return false
	}
	return true
}

// Rollup holds the fleet's records in memory and aggregates them on
// demand. Aggregation is recomputed per query so time-window and label
// filters are exact, never approximated from pre-merged state. Safe for
// concurrent use.
type Rollup struct {
	mu   sync.Mutex
	recs []Record
}

// NewRollup returns an empty rollup.
func NewRollup() *Rollup { return &Rollup{} }

// Add appends one record.
func (ro *Rollup) Add(rec Record) {
	ro.mu.Lock()
	ro.recs = append(ro.recs, rec)
	ro.mu.Unlock()
}

// AddAll appends a replayed batch (boot-time seeding).
func (ro *Rollup) AddAll(recs []Record) {
	ro.mu.Lock()
	ro.recs = append(ro.recs, recs...)
	ro.mu.Unlock()
}

// Records returns a copy of the held records in append order.
func (ro *Rollup) Records() []Record {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return append([]Record(nil), ro.recs...)
}

// Summary describes a set of float observations: exact sum plus min,
// mean and max.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

func (s *Summary) observe(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	s.Mean = s.Sum / float64(s.Count)
}

// BucketStat is one non-empty stage-latency histogram bucket with its
// exemplar: the trace and run IDs of a real run whose duration landed in
// the bucket, so every point of the distribution links back to a concrete
// trace (GET /runs/{id}/trace).
type BucketStat struct {
	LoMicros      int64  `json:"lo_us"`
	HiMicros      int64  `json:"hi_us"`
	Count         int64  `json:"count"`
	ExemplarTrace string `json:"exemplar_trace_id,omitempty"`
	ExemplarRun   int    `json:"exemplar_run_id,omitempty"`
}

// StageStats aggregates one lifecycle stage's latency across a group.
// SumSeconds is the exact sum of the constituent records' stage seconds;
// quantiles are bucket upper bounds (within 2x, clamped to the max).
type StageStats struct {
	Count      int64        `json:"count"`
	SumSeconds float64      `json:"sum_seconds"`
	P50        float64      `json:"p50_seconds"`
	P95        float64      `json:"p95_seconds"`
	P99        float64      `json:"p99_seconds"`
	MaxSeconds float64      `json:"max_seconds"`
	Buckets    []BucketStat `json:"buckets,omitempty"`
}

// stageAgg is the in-flight accumulator behind StageStats.
type stageAgg struct {
	hist      *obs.Histogram // duration in microseconds
	sum       float64        // exact seconds, not reconstructed from buckets
	exemplars map[int]BucketStat
}

func (sa *stageAgg) observe(seconds float64, traceID string, runID int) {
	us := int64(seconds * 1e6)
	sa.hist.Observe(us)
	sa.sum += seconds
	idx := obs.BucketIndex(us)
	if _, ok := sa.exemplars[idx]; !ok {
		sa.exemplars[idx] = BucketStat{ExemplarTrace: traceID, ExemplarRun: runID}
	}
}

func (sa *stageAgg) stats() StageStats {
	st := StageStats{
		Count:      sa.hist.Count,
		SumSeconds: sa.sum,
		P50:        float64(sa.hist.Quantile(0.50)) / 1e6,
		P95:        float64(sa.hist.Quantile(0.95)) / 1e6,
		P99:        float64(sa.hist.Quantile(0.99)) / 1e6,
		MaxSeconds: float64(sa.hist.Max) / 1e6,
	}
	for _, b := range sa.hist.Buckets() {
		idx := obs.BucketIndex(b.Hi)
		ex := sa.exemplars[idx]
		st.Buckets = append(st.Buckets, BucketStat{
			LoMicros:      b.Lo,
			HiMicros:      b.Hi,
			Count:         b.Count,
			ExemplarTrace: ex.ExemplarTrace,
			ExemplarRun:   ex.ExemplarRun,
		})
	}
	return st
}

// Group is one aggregation cell. The dimension fields not being grouped
// by are empty. Counter fields are exact sums of the member records'
// totals — the conservation tests hold them equal to the sum of live
// registry counters.
type Group struct {
	Workload   string `json:"workload,omitempty"`
	Config     string `json:"config,omitempty"`
	Compressor string `json:"compressor,omitempty"`
	State      string `json:"state,omitempty"`

	Runs         int64   `json:"runs"`
	Panics       int64   `json:"panics,omitempty"`
	Memoized     int64   `json:"memoized,omitempty"`
	Intervals    int64   `json:"intervals"`
	Instructions int64   `json:"instructions"`
	L1Misses     int64   `json:"l1_misses"`
	TrafficWords float64 `json:"traffic_words"`

	// TrafficPerKiloInst summarises traffic_words*1000/instructions over
	// the member runs that retired instructions — the fleet-level view of
	// the paper's traffic-ratio comparisons, per group.
	TrafficPerKiloInst *Summary `json:"traffic_per_kilo_inst,omitempty"`

	// Stages maps lifecycle stage name to its latency aggregate.
	Stages map[string]StageStats `json:"stages,omitempty"`

	// ExemplarTraces samples up to one trace ID per distinct spec_hash
	// (first seen), capped, for drill-down from the group itself.
	ExemplarTraces []string `json:"exemplar_trace_ids,omitempty"`

	// SpecHashes counts distinct spec hashes in the group — how many
	// semantically different runs the cell aggregates.
	SpecHashes int `json:"spec_hashes"`
}

func (g *Group) key() string {
	return g.Workload + "\x00" + g.Config + "\x00" + g.Compressor + "\x00" + g.State
}

// Aggregate is the result of one rollup query: the participating record
// count, the grouping dimensions, and one Group per distinct key, sorted.
type Aggregate struct {
	TotalRuns  int64     `json:"total_runs"`
	Dimensions []string  `json:"dimensions"`
	Since      time.Time `json:"since"`
	Until      time.Time `json:"until"`
	Groups     []*Group  `json:"groups"`
}

// maxGroupExemplars caps ExemplarTraces per group.
const maxGroupExemplars = 8

// Aggregate groups the filtered records by the given dimensions (all of
// Dimensions when none are named). Unknown dimension names are an error.
func (ro *Rollup) Aggregate(f Filter, dims ...string) (*Aggregate, error) {
	if len(dims) == 0 {
		dims = Dimensions
	}
	byDim := map[string]bool{}
	for _, d := range dims {
		if !KnownDimension(d) {
			return nil, fmt.Errorf("unknown dimension %q (known: workload, config, compressor, state)", d)
		}
		byDim[d] = true
	}

	ro.mu.Lock()
	recs := append([]Record(nil), ro.recs...)
	ro.mu.Unlock()

	agg := &Aggregate{Dimensions: dims, Since: f.Since, Until: f.Until}
	groups := map[string]*Group{}
	stageAggs := map[string]map[string]*stageAgg{}
	specSeen := map[string]map[string]bool{}
	for _, r := range recs {
		if !f.match(r) {
			continue
		}
		agg.TotalRuns++
		g := &Group{}
		if byDim["workload"] {
			g.Workload = r.Workload
		}
		if byDim["config"] {
			g.Config = r.Config
		}
		if byDim["compressor"] {
			g.Compressor = r.Compressor
		}
		if byDim["state"] {
			g.State = r.State
		}
		k := g.key()
		if have, ok := groups[k]; ok {
			g = have
		} else {
			groups[k] = g
			stageAggs[k] = map[string]*stageAgg{}
			specSeen[k] = map[string]bool{}
		}

		g.Runs++
		if r.Panic {
			g.Panics++
		}
		if r.Memoized {
			g.Memoized++
		}
		g.Intervals += int64(r.Intervals)
		g.Instructions += r.Instructions
		g.L1Misses += r.L1Misses
		g.TrafficWords += r.TrafficWords
		if r.Instructions > 0 {
			if g.TrafficPerKiloInst == nil {
				g.TrafficPerKiloInst = &Summary{}
			}
			g.TrafficPerKiloInst.observe(r.TrafficWords * 1000 / float64(r.Instructions))
		}
		for stage, secs := range r.StageSeconds {
			sa := stageAggs[k][stage]
			if sa == nil {
				sa = &stageAgg{
					hist:      obs.NewHistogram(stage),
					exemplars: map[int]BucketStat{},
				}
				stageAggs[k][stage] = sa
			}
			sa.observe(secs, r.TraceID, r.RunID)
		}
		if !specSeen[k][r.SpecHash] {
			specSeen[k][r.SpecHash] = true
			g.SpecHashes++
			if r.TraceID != "" && len(g.ExemplarTraces) < maxGroupExemplars {
				g.ExemplarTraces = append(g.ExemplarTraces, r.TraceID)
			}
		}
	}

	for k, g := range groups {
		if len(stageAggs[k]) > 0 {
			g.Stages = map[string]StageStats{}
			for stage, sa := range stageAggs[k] {
				g.Stages[stage] = sa.stats()
			}
		}
		agg.Groups = append(agg.Groups, g)
	}
	sort.Slice(agg.Groups, func(i, j int) bool {
		return agg.Groups[i].key() < agg.Groups[j].key()
	})
	return agg, nil
}
