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

// Wire-diff thresholds: encoded sizes are deterministic codec properties
// and gate exactly (like exponentiation counts); encode/decode
// nanoseconds are machine-dependent, so they gate by the generous
// TimeRatio plus an absolute nanosecond floor that ignores sub-microsecond
// jitter on the hand-rolled paths.
const DefaultWireNsFloor = 2000.0

// DiffWireBench compares two BENCH_wire.json files: per-kind encoded
// sizes exactly (CountTolerance growth allowed), codec encode/decode
// timings by TimeRatio with the nanosecond floor, and the end-to-end
// latency sweep by TimeRatio with the millisecond floor.
func DiffWireBench(oldB, newB *WireBench, opt DiffOptions) []Regression {
	opt = opt.withDefaults()
	var out []Regression
	compared := 0

	ns := func(metric string, oldV, newV float64) {
		if oldV <= 0 {
			return
		}
		compared++
		limit := oldV * opt.TimeRatio
		if newV > limit && newV-oldV > DefaultWireNsFloor {
			out = append(out, Regression{Metric: metric, Old: oldV, New: newV, Limit: limit})
		}
	}
	ms := func(metric string, oldV, newV float64) {
		if oldV <= 0 {
			return
		}
		compared++
		limit := oldV * opt.TimeRatio
		if newV > limit && (opt.TimeFloorMs < 0 || newV-oldV > opt.TimeFloorMs) {
			out = append(out, Regression{Metric: metric, Old: oldV, New: newV, Limit: limit})
		}
	}
	size := func(metric string, oldV, newV int) {
		compared++
		limit := oldV + opt.CountTolerance
		if newV > limit {
			out = append(out, Regression{Metric: metric,
				Old: float64(oldV), New: float64(newV), Limit: float64(limit)})
		}
	}

	newCodec := make(map[string]WireCodecPoint, len(newB.Codec))
	for _, p := range newB.Codec {
		newCodec[p.Kind] = p
	}
	for _, o := range oldB.Codec {
		n, ok := newCodec[o.Kind]
		if !ok {
			continue
		}
		pfx := "wire/" + o.Kind
		size(pfx+"/codec_bytes", o.CodecBytes, n.CodecBytes)
		ns(pfx+"/codec_encode_ns", o.CodecEncNs, n.CodecEncNs)
		ns(pfx+"/codec_decode_ns", o.CodecDecNs, n.CodecDecNs)
	}

	newLat := make(map[string]WireLatencyPoint, len(newB.Latency))
	for _, p := range newB.Latency {
		newLat[fmt.Sprintf("%s/%d", p.Suite, p.Size)] = p
	}
	for _, o := range oldB.Latency {
		n, ok := newLat[fmt.Sprintf("%s/%d", o.Suite, o.Size)]
		if !ok {
			continue
		}
		pfx := fmt.Sprintf("latency/%s/size%d", o.Suite, o.Size)
		ms(pfx+"/p50_ms", o.P50Ms, n.P50Ms)
		ms(pfx+"/mean_ms", o.MeanMs, n.MeanMs)
	}

	if compared == 0 {
		out = append(out, Regression{Metric: "coverage/comparable_metrics", Old: 1, New: 0, Limit: 1})
	}
	return out
}
