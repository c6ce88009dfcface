package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-100, 0}, {-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{16, 5}, {31, 5},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{1 << 61, 62}, {1<<62 - 1, 62},
		{1 << 62, 63}, {1<<63 - 1, 63}, // top bucket saturates
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every bucket's bounds must map back to that bucket, and consecutive
// buckets must tile the positive axis with no gap or overlap.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if i > 0 {
			if got := BucketIndex(lo); got != i {
				t.Errorf("bucket %d: BucketIndex(lo=%d) = %d", i, lo, got)
			}
			if got := BucketIndex(hi); got != i {
				t.Errorf("bucket %d: BucketIndex(hi=%d) = %d", i, hi, got)
			}
			prevLo, prevHi := BucketBounds(i - 1)
			if i > 1 && lo != prevHi+1 {
				t.Errorf("gap between bucket %d (hi=%d) and %d (lo=%d)", i-1, prevHi, i, lo)
			}
			_ = prevLo
		}
	}
	// Bucket 0 takes everything non-positive; bucket 1 starts at 1.
	if lo, hi := BucketBounds(0); hi != 0 || lo > -1 {
		t.Errorf("bucket 0 bounds = [%d, %d], want hi 0", lo, hi)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []int64{1, 1, 3, 4, 100, 0} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Sum != 109 || h.Max != 100 {
		t.Fatalf("count=%d sum=%d max=%d, want 6/109/100", h.Count, h.Sum, h.Max)
	}
	if got, want := h.Mean(), 109.0/6; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	bks := h.Buckets()
	// Expect buckets: 0 (v=0), 1 (two 1s), 2 (v=3), 3 (v=4), 7 (v=100: 64..127),
	// keyed by each bucket's low bound (bucket 0 spans the non-positives).
	wantCounts := map[int64]int64{-1 << 62: 1, 1: 2, 2: 1, 4: 1, 64: 1}
	if len(bks) != len(wantCounts) {
		t.Fatalf("got %d non-empty buckets, want %d: %+v", len(bks), len(wantCounts), bks)
	}
	for _, b := range bks {
		if wantCounts[b.Lo] != b.Count {
			t.Errorf("bucket lo=%d count=%d, want %d", b.Lo, b.Count, wantCounts[b.Lo])
		}
	}
	if s := h.String(); !strings.Contains(s, "lat: n=6") || !strings.Contains(s, "#") {
		t.Errorf("String() missing header or bars:\n%s", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Mean() != 0 || len(h.Buckets()) != 0 {
		t.Error("empty histogram should have zero mean and no buckets")
	}
	if s := h.String(); !strings.Contains(s, "n=0") {
		t.Errorf("String() = %q", s)
	}
}

// TestWritePrometheus checks the exposition of a histogram family: every
// series carries the same le set (the buckets any series filled), bucket
// counts are cumulative and non-decreasing, +Inf equals _count, _sum is
// the exact integer sum over unit, and label values are escaped.
func TestWritePrometheus(t *testing.T) {
	a, b := NewHistogram("exec"), NewHistogram(`we"ird\`)
	for _, v := range []int64{1500, 1500, 3_000_000, 999_999_999} {
		a.Observe(v)
	}
	b.Observe(0)
	b.Observe(2047)
	var sb strings.Builder
	WritePrometheus(&sb, "x_seconds", "Help text.", "stage", 1e9, []*Histogram{a, b})
	out := sb.String()
	if !strings.HasPrefix(out, "# HELP x_seconds Help text.\n# TYPE x_seconds histogram\n") {
		t.Fatalf("missing HELP/TYPE header:\n%s", out)
	}

	line := regexp.MustCompile(`^x_seconds_(bucket|sum|count)\{stage="((?:[^"\\]|\\.)*)"(?:,le="([^"]+)")?\} (\S+)$`)
	les := map[string][]string{}
	buckets := map[string][]int64{}
	sums, counts := map[string]string{}, map[string]int64{}
	for _, l := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("malformed line %q", l)
		}
		kind, stage, le, val := m[1], m[2], m[3], m[4]
		switch kind {
		case "bucket":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			les[stage] = append(les[stage], le)
			buckets[stage] = append(buckets[stage], n)
		case "sum":
			sums[stage] = val
		case "count":
			counts[stage], _ = strconv.ParseInt(val, 10, 64)
		}
	}

	// One le set: bucket 0 (from b's 0), 11 (1500 and 2047), 22 (3e6),
	// 30 (999999999), each rendered as its inclusive upper bound.
	wantLE := []string{"0", "2.047e-06", "0.004194303", "1.073741823", "+Inf"}
	for _, h := range []*Histogram{a, b} {
		stage := EscapeLabel(h.Name)
		if got := strings.Join(les[stage], " "); got != strings.Join(wantLE, " ") {
			t.Errorf("%s le set = %s, want %s", h.Name, got, strings.Join(wantLE, " "))
		}
		bs := buckets[stage]
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Errorf("%s buckets not cumulative: %v", h.Name, bs)
			}
		}
		if inf := bs[len(bs)-1]; inf != h.Count || counts[stage] != h.Count {
			t.Errorf("%s +Inf %d, _count %d, want %d", h.Name, inf, counts[stage], h.Count)
		}
		if want := fmt.Sprint(float64(h.Sum) / 1e9); sums[stage] != want {
			t.Errorf("%s _sum = %s, want %s", h.Name, sums[stage], want)
		}
	}
	if got := buckets["exec"]; fmt.Sprint(got) != "[0 2 3 4 4]" {
		t.Errorf("exec buckets = %v, want [0 2 3 4 4]", got)
	}
	if got := buckets[`we\"ird\\`]; fmt.Sprint(got) != "[1 2 2 2 2]" {
		t.Errorf("escaped series buckets = %v, want [1 2 2 2 2]", got)
	}
	if sums["exec"] != "1.003002999" {
		t.Errorf("exec _sum = %s, want the exact 1.003002999", sums["exec"])
	}
}
