package obs

import (
	"slices"
	"strconv"
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
// overflow bucket has no upper bound; observations there report the
// histogram's recorded maximum.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	lower := 0.0
	for _, b := range h.Buckets {
		if b.Count == 0 {
			continue
		}
		upper, ok := bucketBoundMs(b.LE)
		if !ok {
			return h.MaxMs
		}
		if float64(cum+b.Count) >= rank {
			frac := (rank - float64(cum)) / float64(b.Count)
			return lower + (upper-lower)*frac
		}
		cum += b.Count
		lower = upper
	}
	return h.MaxMs
}

// bucketBoundMs parses a snapshot bucket bound (a time.Duration string)
// into milliseconds; ok is false for the overflow bucket.
func bucketBoundMs(le string) (float64, bool) {
	if le == "+Inf" {
		return 0, false
	}
	if d, err := time.ParseDuration(le); err == nil {
		return float64(d) / 1e6, true
	}
	if v, err := strconv.ParseFloat(le, 64); err == nil {
		return v, true
	}
	return 0, false
}
