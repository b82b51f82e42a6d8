package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of v and returns its middle.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// tailLevels are the percentile levels a timing may be reported at.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailLevel picks the highest level that still has at least ten of n
// samples beyond it; below twenty samples only the median is defensible.
func tailLevel(n int) float64 {
	level := tailLevels[0]
	for _, q := range tailLevels {
		// Rounded: 100*(1-0.9) is a hair under 10 in floating point.
		if math.Round(float64(n)*(1-q)*1e6)/1e6 >= 10 {
			level = q
		}
	}
	return level
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method) — the rule the
// benchmark's acceptance check applies to ten runs.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// quartileSpread is the inter-quartile distance of v as a share of its median.
func quartileSpread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// segmentMedian applies f to every segment's samples and returns the
// median of the results: one slow segment (a GC cycle, a noisy neighbour)
// moves a mean but not this.
func segmentMedian(segments [][]float64, f func(sorted []float64) float64) float64 {
	per := make([]float64, 0, len(segments))
	for _, seg := range segments {
		if len(seg) == 0 {
			continue
		}
		s := slices.Clone(seg)
		slices.Sort(s)
		per = append(per, f(s))
	}
	if len(per) == 0 {
		return math.NaN()
	}
	return median(per)
}

// pooled concatenates the segments' samples, sorted.
func pooled(segments [][]float64) []float64 {
	var all []float64
	for _, seg := range segments {
		all = append(all, seg...)
	}
	slices.Sort(all)
	return all
}
