package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// histBuckets covers every int64: bucket 0 holds v <= 0, bucket i >= 1
// holds v in [2^(i-1), 2^i - 1]; bucket 63 additionally absorbs 2^62..max.
const histBuckets = 64

// Histogram counts observations in power-of-two buckets, the standard
// shape for latency distributions: exact at the small end (1-cycle hits
// get their own bucket) and logarithmic toward the memory-latency tail.
type Histogram struct {
	Name  string
	Count int64
	Sum   int64
	Max   int64

	buckets [histBuckets]int64
}

// NewHistogram returns an empty named histogram.
func NewHistogram(name string) *Histogram { return &Histogram{Name: name} }

// BucketIndex returns the bucket holding v: 0 for v <= 0, else
// 1 + floor(log2 v), capped at the last bucket.
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketBounds returns the inclusive [lo, hi] value range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return -1 << 62, 0
	case i >= histBuckets-1:
		return 1 << (histBuckets - 2), 1<<62 - 1 + 1<<62
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.buckets[BucketIndex(v)]++
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed values: the inclusive upper bound of the bucket holding the
// ceil(q*Count)-th smallest observation, clamped to the observed Max.
// With power-of-two buckets the estimate is within 2x of the true
// quantile, exact for values that land on bucket boundaries. An empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			_, hi := BucketBounds(i)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Lo, Hi int64 // inclusive value range
	Count  int64
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// String renders the histogram as an aligned text block with scaled bars.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: n=%d mean=%.2f max=%d\n", h.Name, h.Count, h.Mean(), h.Max)
	bks := h.Buckets()
	maxCount := int64(1)
	for _, b := range bks {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	for _, b := range bks {
		bar := int(40 * b.Count / maxCount)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&sb, "  [%8d, %8d] %10d %s\n", b.Lo, b.Hi, b.Count, strings.Repeat("#", bar))
	}
	return sb.String()
}

// EscapeLabel escapes a Prometheus label value per the text exposition
// format: backslash, double quote and newline.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders hists, in the given order, as the Prometheus
// histogram family name (text exposition 0.0.4), one series per histogram
// labelled label="<Name>". unit is the number of observed units per
// exposition unit (1e9 renders nanoseconds as seconds). Buckets are
// cumulative and every series shares one le set, the upper bounds of the
// power-of-two buckets that any of hists has filled, so series aggregate
// across labels. +Inf equals _count, and _sum is the exact integer sum
// divided by unit once.
func WritePrometheus(w io.Writer, name, help, label string, unit float64, hists []*Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var filled [histBuckets]bool
	for _, h := range hists {
		for i, c := range h.buckets {
			filled[i] = filled[i] || c > 0
		}
	}
	for _, h := range hists {
		series := fmt.Sprintf(`%s="%s"`, label, EscapeLabel(h.Name))
		var cum int64
		for i, c := range h.buckets {
			cum += c
			if filled[i] {
				_, hi := BucketBounds(i)
				fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, series, float64(hi)/unit, cum)
			}
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, series, h.Count)
		fmt.Fprintf(w, "%s_sum{%s} %v\n", name, series, float64(h.Sum)/unit)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, series, h.Count)
	}
}
