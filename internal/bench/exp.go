package bench

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/dh"
)

// ExpReport is the recorded performance of the exponentiation fast paths:
// fixed-base PowG vs. the generic modular exponentiation, the scaling of
// the ExpBatch worker pool, and the Seal/Open fast path. It is written to
// BENCH_exp.json so the performance trajectory of the hot path is recorded
// alongside the paper-table regenerations.
type ExpReport struct {
	// GOMAXPROCS records the parallelism available when measuring.
	GOMAXPROCS int
	PowG       []PowGPoint
	Batch      []BatchPoint
	SealOpen   []SealOpenPoint
}

// PowGPoint compares one group's generic exponentiation against the
// fixed-base comb table.
type PowGPoint struct {
	Bits    int
	Generic time.Duration // one G^exp via big.Int.Exp
	Fixed   time.Duration // one G^exp via the comb table
	Speedup float64
}

// BatchPoint is the measured cost of one ExpBatch of N exponentiations at
// a given pool width.
type BatchPoint struct {
	Bits    int
	N       int
	Workers int
	Total   time.Duration
	// Scaling is serial-time / this-time: ideal is min(Workers, N).
	Scaling float64
}

// SealOpenPoint records one cipher suite's seal+open cost. Allocations are
// measured by the benchmark layer (testing.AllocsPerRun) and filled in by
// the caller.
type SealOpenPoint struct {
	Suite      string
	Size       int
	SealNs     int64
	OpenNs     int64
	SealAllocs float64
	OpenAllocs float64
}

// MeasurePowG times generic vs. fixed-base exponentiation of the group
// generator over iters random shares.
func MeasurePowG(g *dh.Group, iters int) PowGPoint {
	p := PowGPoint{Bits: g.Bits}
	xs := make([]*big.Int, iters)
	for i := range xs {
		xs[i] = g.MustShare()
	}

	g.Precompute() // exclude the one-time table build from the timing
	start := time.Now()
	for _, e := range xs {
		g.PowG(e, nil, "")
	}
	p.Fixed = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for _, e := range xs {
		g.Exp(g.G, e, nil, "")
	}
	p.Generic = time.Since(start) / time.Duration(iters)

	if p.Fixed > 0 {
		p.Speedup = float64(p.Generic) / float64(p.Fixed)
	}
	return p
}

// MeasureExpBatch times an n-entry ExpBatch at each pool width, averaged
// over iters rounds. Scaling is reported relative to the first width in
// workers (conventionally 1, the serial baseline).
func MeasureExpBatch(g *dh.Group, n, iters int, workers []int) []BatchPoint {
	bases := make(map[string]*big.Int, n)
	for i := 0; i < n; i++ {
		bases[fmt.Sprintf("m%02d", i)] = g.PowG(g.MustShare(), nil, "")
	}
	exp := g.MustShare()

	var out []BatchPoint
	var baseline time.Duration
	for _, w := range workers {
		prev := dh.SetBatchWorkers(w)
		start := time.Now()
		for i := 0; i < iters; i++ {
			g.ExpBatch(bases, exp, nil, "")
		}
		total := time.Since(start) / time.Duration(iters)
		dh.SetBatchWorkers(prev)

		p := BatchPoint{Bits: g.Bits, N: n, Workers: w, Total: total}
		if baseline == 0 {
			baseline = total
		}
		if total > 0 {
			p.Scaling = float64(baseline) / float64(total)
		}
		out = append(out, p)
	}
	return out
}

// WriteJSON writes v as indented JSON to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}
