package obs

import (
	"math"
	"testing"

	"cppcache/internal/memsys"
)

// TestSnapshotRatiosZeroDenominator pins the edge-case contract of every
// derived-rate helper: a zero denominator yields 0, never NaN or Inf, so
// CSV consumers and the observatory's exposition never see non-finite
// values.
func TestSnapshotRatiosZeroDenominator(t *testing.T) {
	var s Snapshot // all-zero interval
	for name, got := range map[string]float64{
		"IPC":             s.IPC(),
		"L1MissRate":      s.L1MissRate(),
		"TrafficWords":    s.TrafficWords(),
		"CompRatio":       s.CompRatio(),
		"PrefetchHitRate": s.PrefetchHitRate(),
		"ROBOccupancy":    s.ROBOccupancy(),
	} {
		if got != 0 {
			t.Errorf("%s on zero snapshot = %v, want 0", name, got)
		}
	}

	// Numerator without denominator still must not divide by zero.
	odd := Snapshot{L1Misses: 5, FillCompWords: 3, AffHits: 2, ROBOccSum: 9}
	for name, got := range map[string]float64{
		"L1MissRate":      odd.L1MissRate(),
		"CompRatio":       odd.CompRatio(),
		"PrefetchHitRate": odd.PrefetchHitRate(),
		"ROBOccupancy":    odd.ROBOccupancy(),
	} {
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s = %v, want finite", name, got)
		}
	}
}

// TestSnapshotRatiosValues checks the helpers against hand-computed
// values on a populated interval.
func TestSnapshotRatiosValues(t *testing.T) {
	s := Snapshot{
		L1Accesses:         200,
		L1Misses:           50,
		MemReadHalves:      30,
		MemWriteHalves:     10,
		FillWords:          80,
		FillCompWords:      60,
		AffHits:            6,
		PfBufHits:          2,
		AffWordsPrefetched: 10,
		PfIssued:           6,
		ROBOccSum:          90,
		ROBOccSamples:      30,
	}
	if got := s.L1MissRate(); got != 0.25 {
		t.Errorf("L1MissRate = %v, want 0.25", got)
	}
	if got := s.TrafficWords(); got != 20 {
		t.Errorf("TrafficWords = %v, want 20", got)
	}
	if got := s.CompRatio(); got != 0.75 {
		t.Errorf("CompRatio = %v, want 0.75", got)
	}
	if got := s.PrefetchHitRate(); got != 0.5 {
		t.Errorf("PrefetchHitRate = %v, want 0.5", got)
	}
	if got := s.ROBOccupancy(); got != 3 {
		t.Errorf("ROBOccupancy = %v, want 3", got)
	}
}

// streamingTwin returns a recorder that streams its snapshots into
// *calls, and a twin that keeps its own series instead.
func streamingTwin(interval int64, calls *[]Snapshot) (stream, keep *Recorder) {
	stream = New(Config{Interval: interval, OnSnapshot: func(s Snapshot) { *calls = append(*calls, s) }})
	return stream, New(Config{Interval: interval})
}

// checkStreamed checks that a streaming recorder kept no series and that
// its callback saw exactly the twin's retained series, in order.
func checkStreamed(t *testing.T, stream *Recorder, calls, snaps []Snapshot) {
	t.Helper()
	if kept := stream.Snapshots(); len(kept) != 0 {
		t.Errorf("streaming recorder kept %d snapshots, want none", len(kept))
	}
	if len(calls) != len(snaps) {
		t.Fatalf("OnSnapshot saw %d snapshots, the retaining twin kept %d", len(calls), len(snaps))
	}
	for i := range calls {
		if calls[i] != snaps[i] {
			t.Errorf("OnSnapshot[%d] = %+v, the retaining twin kept %+v", i, calls[i], snaps[i])
		}
	}
}

// TestSingleIntervalRun pins the degenerate series: a run shorter than
// one interval yields exactly one Finish snapshot that carries the whole
// run, so consumers summing deltas still reproduce the totals.
func TestSingleIntervalRun(t *testing.T) {
	var calls []Snapshot
	stream, keep := streamingTwin(1<<30, &calls)
	st := &memsys.Stats{}
	for _, r := range []*Recorder{stream, keep} {
		r.AttachStats(st)
	}

	st.L1.Accesses = 7
	st.L1.Misses = 3
	for _, r := range []*Recorder{stream, keep} {
		r.Tick(100, 1, 0, 0)
		r.Finish()
	}

	snaps := keep.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	if snaps[0].L1Accesses != 7 || snaps[0].L1Misses != 3 {
		t.Errorf("finish snapshot = %+v, want the whole run", snaps[0])
	}
	checkStreamed(t, stream, calls, snaps)
}

// TestOnSnapshotSeriesMatches checks that the streaming callback sees
// exactly the series a retaining recorder keeps, in order, across
// multiple intervals, while the streaming recorder keeps none.
func TestOnSnapshotSeriesMatches(t *testing.T) {
	var calls []Snapshot
	stream, keep := streamingTwin(10, &calls)
	st := &memsys.Stats{}
	for _, r := range []*Recorder{stream, keep} {
		r.AttachStats(st)
	}

	for cyc := int64(1); cyc <= 35; cyc++ {
		st.L1.Accesses++
		stream.Tick(cyc, 1, 0, 0)
		keep.Tick(cyc, 1, 0, 0)
	}
	stream.Finish()
	keep.Finish()

	snaps := keep.Snapshots()
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots, want several", len(snaps))
	}
	checkStreamed(t, stream, calls, snaps)
	var sum int64
	for _, s := range calls {
		sum += s.L1Accesses
	}
	if sum != st.L1.Accesses {
		t.Errorf("streamed deltas sum to %d, counter is %d", sum, st.L1.Accesses)
	}
}
