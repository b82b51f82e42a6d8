package obs

import (
	"math"
	"slices"
	"time"
)

// MergeHistograms sums two histogram snapshots bucket-wise — the merge the
// fleet monitor uses to aggregate per-node rekey-latency histograms into
// one cluster-wide distribution. Histograms with different bucket layouts
// cannot be merged; the one with more observations wins.
func MergeHistograms(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	if !slices.EqualFunc(a.Buckets, b.Buckets, func(x, y Bucket) bool { return x.LE == y.LE }) {
		if a.Count >= b.Count {
			return a
		}
		return b
	}
	out := HistogramSnapshot{
		Count:  a.Count + b.Count,
		MeanMs: (a.MeanMs*float64(a.Count) + b.MeanMs*float64(b.Count)) / float64(a.Count+b.Count),
		MinMs:  a.MinMs,
		MaxMs:  a.MaxMs,
	}
	if b.MinMs < out.MinMs {
		out.MinMs = b.MinMs
	}
	if b.MaxMs > out.MaxMs {
		out.MaxMs = b.MaxMs
	}
	out.Buckets = make([]Bucket, len(a.Buckets))
	for i := range a.Buckets {
		out.Buckets[i] = Bucket{LE: a.Buckets[i].LE, Count: a.Buckets[i].Count + b.Buckets[i].Count}
	}
	return out
}

// Quantile estimates the q-quantile (0..1) in milliseconds from the
// bucket counts, by linear interpolation within the owning bucket. The
// interpolation range is the bucket's bounds narrowed to the recorded
// [MinMs, MaxMs], so no estimate lies outside what was observed: q = 0
// reads the minimum, q = 1 the maximum, and the overflow bucket spans its
// lower bound to the maximum.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(h.Count)
	cum, lower := int64(0), 0.0
	for _, b := range h.Buckets {
		upper := bucketBoundMs(b.LE)
		if b.Count > 0 && float64(cum+b.Count) >= rank {
			lo, hi := max(lower, h.MinMs), min(upper, h.MaxMs)
			return lo + (hi-lo)*(rank-float64(cum))/float64(b.Count)
		}
		cum += b.Count
		lower = upper
	}
	return h.MaxMs
}

// bucketBoundMs parses a snapshot bucket bound (a time.Duration string)
// into milliseconds; the overflow bucket's "+Inf" reads as infinity.
func bucketBoundMs(le string) float64 {
	d, err := time.ParseDuration(le)
	if err != nil {
		return math.Inf(1)
	}
	return float64(d) / 1e6
}
