package analyze

import "fmt"

// ThroughputBench is the BENCH_throughput.json schema written by
// `sgcbench -bulk`: sustained encrypted AGREED multicast throughput over
// the full stack, swept over message sizes, cipher suites and group sizes
// — the paper's Figure 4 claim that once the group key is agreed, bulk
// data privacy is cheap.
type ThroughputBench struct {
	Points []ThroughputPoint `json:"throughput"`
}

// ThroughputPoint is one sweep cell: the best-of-N sustained delivery rate
// for a (protocol, suite, group size, message size) combination.
type ThroughputPoint struct {
	Proto      string  `json:"proto"`
	Suite      string  `json:"suite"`
	Members    int     `json:"members"`
	MsgSize    int     `json:"msg_size"`
	Count      int     `json:"count"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
}

// Rows flattens the sweep to one rate row per cell. Unlike every other
// gated metric, throughput regresses downward (GateRate).
func (b *ThroughputBench) Rows() []Row {
	out := make([]Row, 0, len(b.Points))
	for _, p := range b.Points {
		out = append(out, Row{fmt.Sprintf("throughput/%s/%s/m%d/size%d/msgs_per_sec",
			p.Proto, p.Suite, p.Members, p.MsgSize), p.MsgsPerSec, GateRate})
	}
	return out
}
