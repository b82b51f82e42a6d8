package analyze

import (
	"fmt"
	"time"
)

// ExpReport is the BENCH_exp.json schema written by `sgcbench -exp`: the
// recorded performance of the exponentiation fast paths — fixed-base PowG
// vs. the generic modular exponentiation, the scaling of the ExpBatch
// worker pool — and of the Seal/Open fast path.
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

// SealOpenPoint records one cipher suite's seal and open cost.
type SealOpenPoint struct {
	Suite      string
	Size       int
	SealNs     int64
	OpenNs     int64
	SealAllocs float64
	OpenAllocs float64
}

// Rows flattens the report: times gate as nanoseconds, allocation counts
// exactly (crypt.TestSealOpenAllocs pins the same numbers).
func (r *ExpReport) Rows() []Row {
	var out []Row
	for _, p := range r.PowG {
		pfx := fmt.Sprintf("powg/bits%d", p.Bits)
		out = append(out,
			Row{pfx + "/generic_ns", float64(p.Generic), GateNs},
			Row{pfx + "/fixed_ns", float64(p.Fixed), GateNs})
	}
	for _, p := range r.Batch {
		out = append(out, Row{fmt.Sprintf("expbatch/bits%d/n%d/workers%d/total_ns",
			p.Bits, p.N, p.Workers), float64(p.Total), GateNs})
	}
	for _, p := range r.SealOpen {
		pfx := fmt.Sprintf("sealopen/%s/size%d", p.Suite, p.Size)
		out = append(out,
			Row{pfx + "/seal_ns", float64(p.SealNs), GateNs},
			Row{pfx + "/open_ns", float64(p.OpenNs), GateNs},
			Row{pfx + "/seal_allocs", p.SealAllocs, GateCount},
			Row{pfx + "/open_allocs", p.OpenAllocs, GateCount})
	}
	return out
}
