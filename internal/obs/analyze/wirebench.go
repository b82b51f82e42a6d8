package analyze

import "fmt"

// WireBench is the BENCH_wire.json schema written by `sgcbench -wire`: the
// per-kind wire-codec microbenchmark (frame sizes and encode/decode cost)
// plus a live end-to-end message-latency sweep over payload sizes,
// mirroring the paper's message-latency-vs-size figure for the data path.
type WireBench struct {
	Codec   []WireCodecPoint   `json:"codec"`
	Latency []WireLatencyPoint `json:"latency"`
}

// WireCodecPoint is one wire kind's frame size and codec cost (the same
// fields as spread.WireCodecStat, which this package cannot import).
type WireCodecPoint struct {
	Kind       string  `json:"kind"`
	CodecBytes int     `json:"codec_bytes"`
	CodecEncNs float64 `json:"codec_encode_ns"`
	CodecDecNs float64 `json:"codec_decode_ns"`
}

// WireLatencyPoint is one payload size's end-to-end latency through the
// full secure stack (multicast send to delivery at a second member).
type WireLatencyPoint struct {
	Suite  string  `json:"suite"`
	Size   int     `json:"size"`
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Rows flattens the sweep: encoded sizes are deterministic codec
// properties and gate exactly (like exponentiation counts),
// encode/decode costs as nanoseconds, end-to-end latency as milliseconds.
func (b *WireBench) Rows() []Row {
	var out []Row
	for _, p := range b.Codec {
		pfx := "wire/" + p.Kind
		out = append(out,
			Row{pfx + "/codec_bytes", float64(p.CodecBytes), GateCount},
			Row{pfx + "/codec_encode_ns", p.CodecEncNs, GateNs},
			Row{pfx + "/codec_decode_ns", p.CodecDecNs, GateNs})
	}
	for _, p := range b.Latency {
		pfx := fmt.Sprintf("latency/%s/size%d", p.Suite, p.Size)
		out = append(out,
			Row{pfx + "/p50_ms", p.P50Ms, GateMs},
			Row{pfx + "/mean_ms", p.MeanMs, GateMs})
	}
	return out
}
