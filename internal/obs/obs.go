// Package obs is the simulator's observability layer: interval metrics,
// structured event tracing and latency histograms, all reached through a
// nil-able *Recorder so that a disabled recorder costs exactly one
// predictable branch per hook.
//
// Three facilities, matching what compression-cache papers plot when they
// diagnose a design (phase-level traffic and compressibility curves,
// fill/evict/prefetch event timelines, latency distributions):
//
//  1. Interval metrics: every Interval cycles (ops in functional mode) the
//     recorder snapshots the attached memsys.Stats block plus the CPU-side
//     accumulators and stores the per-interval deltas. The series is
//     emitted as CSV (MetricsCSV) or JSON (MetricsJSON) and partitions the
//     run exactly: summing any column over all snapshots reproduces the
//     end-of-run counter.
//  2. Event trace: cache fills, evictions, affiliated-line prefetches,
//     prefetch hits and compression-state transitions are pushed into a
//     fixed-capacity ring buffer (oldest events are dropped and counted).
//     ChromeTrace renders the ring in Chrome trace_event JSON, loadable in
//     chrome://tracing or Perfetto (one simulated cycle = 1 us).
//  3. Latency histograms: load-to-use latency and miss service time in
//     power-of-two buckets (hist.go).
//
// Every exported hook method checks the receiver for nil first, so
// simulator code holds a plain *Recorder field and calls hooks
// unconditionally; with observability off (nil recorder) the hot path pays
// one branch and no memory traffic.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"cppcache/internal/compress"
	"cppcache/internal/mach"
	"cppcache/internal/memsys"
)

// DefaultTraceCap is the event-ring capacity when Config.TraceCap is 0.
const DefaultTraceCap = 1 << 16

// Config sizes a Recorder.
type Config struct {
	// Interval is the snapshot cadence in simulated cycles (pipeline
	// mode) or memory ops (functional mode). <= 0 disables interval
	// metrics.
	Interval int64
	// Trace enables the event ring buffer.
	Trace bool
	// TraceCap overrides the ring capacity (0 = DefaultTraceCap).
	TraceCap int
	// Attr enables the PC/region attribution profiler (attr.go).
	Attr bool
	// OnSnapshot, when set, is called synchronously with each interval
	// snapshot as it is taken (including the trailing Finish snapshot).
	// Long-running consumers (the observatory's streaming registry) use it
	// to publish deltas while the run is still in flight. The consumer
	// then owns the series: the recorder keeps none, so Snapshots,
	// MetricsCSV and MetricsJSON are empty.
	OnSnapshot func(Snapshot)
}

// Attachable is implemented by every hierarchy that can host a recorder.
type Attachable interface {
	SetRecorder(*Recorder)
}

// Recorder collects metrics, events and histograms for one simulation
// run. A nil *Recorder is valid and disables everything.
type Recorder struct {
	interval int64
	nextSnap int64
	now      int64

	stats *memsys.Stats // attached hierarchy counters (may stay nil)
	prev  memsys.Stats  // value at the last snapshot boundary

	insts, prevInsts           int64
	robSum, prevRobSum         int64
	robSamples, prevRobSamples int64
	fillWords, prevFillWords   int64
	fillComp, prevFillComp     int64

	snaps    []Snapshot
	finished bool

	// memPages, when set, samples the main memory's footprint (distinct
	// pages touched) at each snapshot; it is a gauge, not a delta.
	memPages func() int

	ring *ring // nil when tracing is off

	// attr, when non-nil, collects the PC/region attribution profile;
	// attrPC is the PC of the memory access in flight (attr.go).
	attr   *attrProfile
	attrPC mach.Addr

	// onSnap, when set, receives each snapshot instead of snaps.
	onSnap func(Snapshot)

	// LoadToUse is the fetch-to-result-available latency of every load;
	// MissService is the access latency of every demand miss.
	LoadToUse   *Histogram
	MissService *Histogram
}

// New builds a recorder. The zero Config yields a recorder that only
// collects latency histograms.
func New(cfg Config) *Recorder {
	r := &Recorder{
		interval:    cfg.Interval,
		LoadToUse:   NewHistogram("load_to_use_cycles"),
		MissService: NewHistogram("miss_service_cycles"),
	}
	if cfg.Interval > 0 {
		r.nextSnap = cfg.Interval
	}
	if cfg.Trace {
		n := cfg.TraceCap
		if n <= 0 {
			n = DefaultTraceCap
		}
		r.ring = newRing(n)
	}
	if cfg.Attr {
		r.attr = newAttrProfile()
	}
	r.onSnap = cfg.OnSnapshot
	return r
}

// AttachStats connects the hierarchy's statistics block so that interval
// snapshots can diff it. Hierarchies call this from SetRecorder.
func (r *Recorder) AttachStats(s *memsys.Stats) {
	if r == nil {
		return
	}
	r.stats = s
}

// AttachMemPages connects a main-memory footprint sampler (typically
// mem.Memory.PagesTouched); each snapshot then records the absolute page
// count as a working-set gauge.
func (r *Recorder) AttachMemPages(f func() int) {
	if r == nil {
		return
	}
	r.memPages = f
}

// Tick advances simulated time. weight is how many cycles the caller's
// current machine state stood for (the CPU's idle-cycle fast-forward
// passes 1 + skipped so the closed-form accounting stays exact); rob is
// the ROB occupancy over those cycles and insts the cumulative retired
// instruction count.
func (r *Recorder) Tick(now, weight int64, rob int, insts int64) {
	if r == nil {
		return
	}
	r.now = now
	r.insts = insts
	r.robSum += int64(rob) * weight
	r.robSamples += weight
	if r.interval > 0 && now >= r.nextSnap {
		r.snapshot()
	}
}

// OpTick is the functional-mode clock: the op index stands in for cycles.
func (r *Recorder) OpTick(op int64) {
	if r == nil {
		return
	}
	r.now = op
	if r.interval > 0 && op >= r.nextSnap {
		r.snapshot()
	}
}

// FillWords accounts words moved in from memory, comp of them
// compressible, feeding the interval compressibility-ratio metric.
// Hierarchies that already compute per-word compressibility on the fill
// path pass the counts directly.
func (r *Recorder) FillWords(total, comp int64) {
	if r == nil {
		return
	}
	r.fillWords += total
	r.fillComp += comp
}

// FillLine is FillWords for hierarchies that do not otherwise classify
// the fetched words: it computes compressibility itself. Call sites on
// hot paths should guard with an explicit nil check so the scan only runs
// when a recorder is attached.
func (r *Recorder) FillLine(words []mach.Word, base mach.Addr) {
	if r == nil {
		return
	}
	comp := int64(0)
	for i, v := range words {
		if compress.Compressible(v, base+mach.Addr(i*mach.WordBytes)) {
			comp++
		}
	}
	r.FillWords(int64(len(words)), comp)
	if r.attr != nil {
		r.attr.add(AttrFillFail, r.attrPC, base, int64(len(words))-comp)
	}
}

// ObserveLoadToUse records one load's fetch-to-result latency.
func (r *Recorder) ObserveLoadToUse(lat int64) {
	if r == nil {
		return
	}
	r.LoadToUse.Observe(lat)
}

// ObserveMissService records one demand miss's service latency.
func (r *Recorder) ObserveMissService(lat int64) {
	if r == nil {
		return
	}
	r.MissService.Observe(lat)
}

// Finish takes the final partial snapshot so the emitted series
// partitions the whole run. Safe to call more than once.
func (r *Recorder) Finish() {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	if r.interval <= 0 {
		return
	}
	cur := memsys.Stats{}
	if r.stats != nil {
		cur = *r.stats
	}
	if cur != r.prev || r.insts != r.prevInsts ||
		r.robSamples != r.prevRobSamples || r.fillWords != r.prevFillWords {
		r.snapshot()
	}
}

// snapshot takes the per-interval deltas since the previous boundary and
// hands them to onSnap, or appends them to the series without one.
func (r *Recorder) snapshot() {
	cur := memsys.Stats{}
	if r.stats != nil {
		cur = *r.stats
	}
	s := Snapshot{
		Cycle:              r.now,
		Instructions:       r.insts - r.prevInsts,
		L1Accesses:         cur.L1.Accesses - r.prev.L1.Accesses,
		L1Misses:           cur.L1.Misses - r.prev.L1.Misses,
		L2Accesses:         cur.L2.Accesses - r.prev.L2.Accesses,
		L2Misses:           cur.L2.Misses - r.prev.L2.Misses,
		MemReadHalves:      cur.MemReadHalves - r.prev.MemReadHalves,
		MemWriteHalves:     cur.MemWriteHalves - r.prev.MemWriteHalves,
		AffHits:            (cur.AffHitsL1 + cur.AffHitsL2) - (r.prev.AffHitsL1 + r.prev.AffHitsL2),
		AffWordsPrefetched: (cur.AffWordsPrefetchedL1 + cur.AffWordsPrefetchedL2) - (r.prev.AffWordsPrefetchedL1 + r.prev.AffWordsPrefetchedL2),
		Promotions:         cur.Promotions - r.prev.Promotions,
		PfBufHits:          (cur.PfBufHitsL1 + cur.PfBufHitsL2) - (r.prev.PfBufHitsL1 + r.prev.PfBufHitsL2),
		PfIssued:           (cur.PfIssuedL1 + cur.PfIssuedL2) - (r.prev.PfIssuedL1 + r.prev.PfIssuedL2),
		FillWords:          r.fillWords - r.prevFillWords,
		FillCompWords:      r.fillComp - r.prevFillComp,
		ROBOccSum:          r.robSum - r.prevRobSum,
		ROBOccSamples:      r.robSamples - r.prevRobSamples,
	}
	if r.memPages != nil {
		s.PagesTouched = int64(r.memPages())
	}
	if r.onSnap != nil {
		r.onSnap(s)
	} else {
		r.snaps = append(r.snaps, s)
	}
	r.prev = cur
	r.prevInsts = r.insts
	r.prevRobSum = r.robSum
	r.prevRobSamples = r.robSamples
	r.prevFillWords = r.fillWords
	r.prevFillComp = r.fillComp
	for r.nextSnap <= r.now {
		r.nextSnap += r.interval
	}
}

// Snapshots returns the interval series collected so far; none when an
// OnSnapshot consumer owns it.
func (r *Recorder) Snapshots() []Snapshot {
	if r == nil {
		return nil
	}
	return r.snaps
}

// Snapshot holds one interval's deltas. Every counter is the change since
// the previous snapshot, so columns sum to the end-of-run totals; Cycle is
// the absolute simulated time the snapshot was taken at.
type Snapshot struct {
	Cycle              int64 `json:"cycle"`
	Instructions       int64 `json:"instructions"`
	L1Accesses         int64 `json:"l1_accesses"`
	L1Misses           int64 `json:"l1_misses"`
	L2Accesses         int64 `json:"l2_accesses"`
	L2Misses           int64 `json:"l2_misses"`
	MemReadHalves      int64 `json:"mem_read_halves"`
	MemWriteHalves     int64 `json:"mem_write_halves"`
	AffHits            int64 `json:"aff_hits"`
	AffWordsPrefetched int64 `json:"aff_words_prefetched"`
	Promotions         int64 `json:"promotions"`
	PfBufHits          int64 `json:"pf_buf_hits"`
	PfIssued           int64 `json:"pf_issued"`
	FillWords          int64 `json:"fill_words"`
	FillCompWords      int64 `json:"fill_comp_words"`
	ROBOccSum          int64 `json:"rob_occ_sum"`
	ROBOccSamples      int64 `json:"rob_occ_samples"`

	// PagesTouched is a gauge, not a delta: the absolute main-memory
	// footprint (distinct 4 KiB pages) at the snapshot instant.
	PagesTouched int64 `json:"pages_touched"`
}

// IPC is retired instructions per cycle within the interval (0 in
// functional mode).
func (s Snapshot) IPC() float64 { return ratio(s.Instructions, s.ROBOccSamples) }

// L1MissRate is the interval's L1 miss rate.
func (s Snapshot) L1MissRate() float64 { return ratio(s.L1Misses, s.L1Accesses) }

// TrafficWords is the interval's off-chip traffic in 32-bit words.
func (s Snapshot) TrafficWords() float64 {
	return float64(s.MemReadHalves+s.MemWriteHalves) / 2
}

// CompRatio is the compressible fraction of the words fetched from memory
// during the interval.
func (s Snapshot) CompRatio() float64 { return ratio(s.FillCompWords, s.FillWords) }

// PrefetchHitRate relates demand hits on prefetched data (affiliated hits
// plus BCP buffer hits) to the prefetch work done (affiliated words
// installed plus BCP buffer fills) in the interval.
func (s Snapshot) PrefetchHitRate() float64 {
	return ratio(s.AffHits+s.PfBufHits, s.AffWordsPrefetched+s.PfIssued)
}

// ROBOccupancy is the mean reorder-buffer occupancy over the interval.
func (s Snapshot) ROBOccupancy() float64 { return ratio(s.ROBOccSum, s.ROBOccSamples) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// csvHeader lists the emitted columns: raw deltas first, derived rates
// after. Kept in one place so the header and row renderers cannot drift.
var csvHeader = []string{
	"cycle", "instructions", "l1_accesses", "l1_misses", "l2_accesses",
	"l2_misses", "mem_read_halves", "mem_write_halves", "aff_hits",
	"aff_words_prefetched", "promotions", "pf_buf_hits", "pf_issued",
	"fill_words", "fill_comp_words", "rob_occ_sum", "rob_occ_samples",
	"pages_touched",
	"ipc", "l1_miss_rate", "traffic_words", "comp_ratio",
	"prefetch_hit_rate", "rob_occupancy",
}

// csvRow renders one snapshot in csvHeader order.
func csvRow(sb *strings.Builder, s Snapshot) {
	fmt.Fprintf(sb, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		s.Cycle, s.Instructions, s.L1Accesses, s.L1Misses, s.L2Accesses,
		s.L2Misses, s.MemReadHalves, s.MemWriteHalves, s.AffHits,
		s.AffWordsPrefetched, s.Promotions, s.PfBufHits, s.PfIssued,
		s.FillWords, s.FillCompWords, s.ROBOccSum, s.ROBOccSamples,
		s.PagesTouched)
	fmt.Fprintf(sb, ",%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
		s.IPC(), s.L1MissRate(), s.TrafficWords(), s.CompRatio(),
		s.PrefetchHitRate(), s.ROBOccupancy())
}

// MetricsCSV renders the interval series as CSV with a header row.
func (r *Recorder) MetricsCSV() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(csvHeader, ","))
	sb.WriteByte('\n')
	for _, s := range r.snaps {
		csvRow(&sb, s)
	}
	return sb.String()
}

// MetricsJSON renders the interval series as a JSON array of snapshots.
func (r *Recorder) MetricsJSON() ([]byte, error) {
	if r == nil {
		return []byte("[]"), nil
	}
	snaps := r.snaps
	if snaps == nil {
		snaps = []Snapshot{}
	}
	return json.MarshalIndent(snaps, "", "  ")
}

// Histograms returns the recorder's latency histograms.
func (r *Recorder) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return []*Histogram{r.LoadToUse, r.MissService}
}

// HistogramsText renders every histogram for terminal output.
func (r *Recorder) HistogramsText() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	for _, h := range r.Histograms() {
		sb.WriteString(h.String())
	}
	return sb.String()
}
