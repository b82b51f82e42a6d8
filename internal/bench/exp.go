package bench

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/obs/analyze"
)

// MeasurePowG times generic vs. fixed-base exponentiation of the group
// generator over iters random shares.
func MeasurePowG(g *dh.Group, iters int) analyze.PowGPoint {
	p := analyze.PowGPoint{Bits: g.Bits}
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
func MeasureExpBatch(g *dh.Group, n, iters int, workers []int) []analyze.BatchPoint {
	bases := make(map[string]*big.Int, n)
	for i := 0; i < n; i++ {
		bases[fmt.Sprintf("m%02d", i)] = g.PowG(g.MustShare(), nil, "")
	}
	exp := g.MustShare()

	var out []analyze.BatchPoint
	var baseline time.Duration
	for _, w := range workers {
		prev := dh.SetBatchWorkers(w)
		start := time.Now()
		for i := 0; i < iters; i++ {
			g.ExpBatch(bases, exp, nil, "")
		}
		total := time.Since(start) / time.Duration(iters)
		dh.SetBatchWorkers(prev)

		p := analyze.BatchPoint{Bits: g.Bits, N: n, Workers: w, Total: total}
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

// measureSealOpen times one cipher suite's Seal and Open of a size-byte
// message over iters rounds each, and counts their allocations.
func measureSealOpen(suite string, size, iters int) (analyze.SealOpenPoint, error) {
	p := analyze.SealOpenPoint{Suite: suite, Size: size}
	s, err := crypt.NewSuite(suite, []byte("benchmark-group-secret-material!"), []byte("bench"))
	if err != nil {
		return p, err
	}
	measure := func(op func()) (int64, float64) {
		allocs := testing.AllocsPerRun(200, op)
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		return time.Since(start).Nanoseconds() / int64(iters), allocs
	}
	msg := make([]byte, size)
	var frame []byte
	p.SealNs, p.SealAllocs = measure(func() { frame, err = s.Seal(msg) })
	if err != nil {
		return p, err
	}
	p.OpenNs, p.OpenAllocs = measure(func() { _, err = s.Open(frame) })
	return p, err
}

// MeasureExp produces the BENCH_exp.json report: fixed-base speedup at 512
// and 1024 bits, batch-pool scaling at 1024 bits, Seal/Open cost at 1 KiB.
func MeasureExp() (*analyze.ExpReport, error) {
	rep := &analyze.ExpReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, bits := range []int{512, 1024} {
		g, err := dh.GroupForBits(bits)
		if err != nil {
			return nil, err
		}
		rep.PowG = append(rep.PowG, MeasurePowG(g, 40))
		if bits == 1024 {
			rep.Batch = MeasureExpBatch(g, 16, 10, []int{1, 2, 4, 8})
		}
	}
	p, err := measureSealOpen(crypt.SuiteAESCTR, 1024, 2000)
	if err != nil {
		return nil, err
	}
	rep.SealOpen = append(rep.SealOpen, p)
	return rep, nil
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
