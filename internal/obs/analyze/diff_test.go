package analyze

import "testing"

// TestDiff pins the one regression gate, a row per gate kind and outcome.
// Rows named "rekey gate: …" and "throughput gate: …" are the cases of the
// former per-schema TestDiffRegressionGate and TestDiffThroughputGate.
func TestDiff(t *testing.T) {
	const cover = "coverage/comparable_metrics"
	row := func(g Gate, v float64) []Row { return []Row{{"m", v, g}} }
	for _, c := range []struct {
		name     string
		old, new []Row
		opt      DiffOptions
		want     string  // the regressed metric; "" = passes
		limit    float64 // expected Regression.Limit when want == "m"
	}{
		// counts: exact
		{name: "count: equal", old: row(GateCount, 12), new: row(GateCount, 12)},
		{name: "count: shrinks", old: row(GateCount, 12), new: row(GateCount, 11)},
		{name: "rekey gate: one extra exponentiation", old: row(GateCount, 12), new: row(GateCount, 13), want: "m", limit: 12},
		{name: "count: growth within -count-tol", old: row(GateCount, 12), new: row(GateCount, 13), opt: DiffOptions{CountTolerance: 1}},
		{name: "count: zero baseline still gates", old: row(GateCount, 0), new: row(GateCount, 1), want: "m", limit: 0},

		// milliseconds: x10 with a 50 ms floor
		{name: "rekey gate: identical", old: row(GateMs, 20), new: row(GateMs, 20)},
		{name: "ms: within the ratio", old: row(GateMs, 20), new: row(GateMs, 199)},
		{name: "rekey gate: 4ms -> 45ms is over the ratio, under the floor", old: row(GateMs, 4), new: row(GateMs, 45)},
		{name: "rekey gate: 20ms -> 900ms is over both", old: row(GateMs, 20), new: row(GateMs, 900), want: "m", limit: 200},
		{name: "ms: baseline 0 skipped", old: row(GateMs, 0), new: row(GateMs, 900), want: cover},
		{name: "ms: negative floor disables it", old: row(GateMs, 4), new: row(GateMs, 45), opt: DiffOptions{Floor: -1}, want: "m", limit: 40},
		{name: "ms: explicit ratio", old: row(GateMs, 100), new: row(GateMs, 260), opt: DiffOptions{Ratio: 2}, want: "m", limit: 200},

		// nanoseconds: x10 with a 2000 ns floor
		{name: "ns: within the ratio", old: row(GateNs, 500), new: row(GateNs, 4000)},
		{name: "ns: over the ratio, under the floor", old: row(GateNs, 100), new: row(GateNs, 1900)},
		{name: "ns: over both", old: row(GateNs, 500), new: row(GateNs, 6000), want: "m", limit: 5000},
		{name: "ns: baseline 0 skipped", old: row(GateNs, 0), new: row(GateNs, 6000), want: cover},
		{name: "ns: explicit floor", old: row(GateNs, 100), new: row(GateNs, 1900), opt: DiffOptions{Floor: 1000}, want: "m", limit: 1000},

		// rates: downward, /3 with a 500 msgs/s floor
		{name: "throughput gate: faster", old: row(GateRate, 60000), new: row(GateRate, 90000)},
		{name: "throughput gate: half the rate is within /3", old: row(GateRate, 60000), new: row(GateRate, 30000)},
		{name: "rate: under the ratio, within the floor", old: row(GateRate, 600), new: row(GateRate, 150)},
		{name: "throughput gate: collapse below old/3", old: row(GateRate, 60000), new: row(GateRate, 9000), want: "m", limit: 20000},
		{name: "rate: baseline 0 skipped", old: row(GateRate, 0), new: row(GateRate, 9000), want: cover},
		{name: "throughput gate: explicit tighter ratio wins", old: row(GateRate, 60000), new: row(GateRate, 30000), opt: DiffOptions{Ratio: 1.5}, want: "m", limit: 40000},
		// Fails at the parent commit, which took 10 for "flag unset".
		{name: "rate: explicit ratio 10 is honoured", old: row(GateRate, 60000), new: row(GateRate, 15000), opt: DiffOptions{Ratio: 10}},

		// coverage
		{name: "cell missing from the new run is skipped", old: []Row{{"m", 20, GateMs}, {"gone", 1, GateCount}}, new: row(GateMs, 20)},
		{name: "cell missing from the baseline is skipped", old: row(GateMs, 20), new: []Row{{"m", 20, GateMs}, {"added", 9, GateCount}}},
		{name: "rekey gate / throughput gate: nothing comparable", old: row(GateMs, 20), new: nil, want: cover},
	} {
		regs := Diff(c.old, c.new, c.opt)
		switch {
		case c.want == "" && len(regs) == 0:
		case c.want != "" && len(regs) == 1 && regs[0].Metric == c.want && (c.want == cover || regs[0].Limit == c.limit):
		default:
			t.Errorf("%s: regressions %v, want metric %q limit %v", c.name, regs, c.want, c.limit)
		}
	}
}

// TestRowsGates spot-checks that each bench schema flattens to the metric
// names the baselines are tracked under, with the right gate.
func TestRowsGates(t *testing.T) {
	has := func(rows []Row, metric string, v float64, g Gate) {
		t.Helper()
		for _, r := range rows {
			if r == (Row{metric, v, g}) {
				return
			}
		}
		t.Errorf("no row {%s %v %v} in %v", metric, v, g, rows)
	}
	rekey := &RekeyBench{Protocols: map[string]*ProtoBench{"cliques": {
		Phases: []ClassSummary{{Class: "join", Size: 4, TotalP50Ms: 20, Mean: Phases{KGAMs: 10}}},
		Exps:   []ExpRow{{N: 4, JoinSerial: 12}},
	}}}
	has(rekey.Rows(), "rekey/cliques/join/n4/total_p50_ms", 20, GateMs)
	has(rekey.Rows(), "rekey/cliques/join/n4/mean_kga_ms", 10, GateMs)
	has(rekey.Rows(), "exp/cliques/n4/join_serial", 12, GateCount)

	wire := &WireBench{
		Codec:   []WireCodecPoint{{Kind: "data", CodecBytes: 27, CodecDecNs: 400}},
		Latency: []WireLatencyPoint{{Suite: "blowfish-cbc", Size: 100, P50Ms: 0.3}},
	}
	has(wire.Rows(), "wire/data/codec_bytes", 27, GateCount)
	has(wire.Rows(), "wire/data/codec_decode_ns", 400, GateNs)
	has(wire.Rows(), "latency/blowfish-cbc/size100/p50_ms", 0.3, GateMs)

	tp := &ThroughputBench{Points: []ThroughputPoint{{Proto: "cliques", Suite: "null", Members: 2, MsgSize: 64, MsgsPerSec: 1e5}}}
	has(tp.Rows(), "throughput/cliques/null/m2/size64/msgs_per_sec", 1e5, GateRate)

	exp := &ExpReport{
		PowG:     []PowGPoint{{Bits: 512, Fixed: 70000}},
		SealOpen: []SealOpenPoint{{Suite: "aes-ctr", Size: 1024, SealNs: 1700, OpenAllocs: 3}},
	}
	has(exp.Rows(), "powg/bits512/fixed_ns", 70000, GateNs)
	has(exp.Rows(), "sealopen/aes-ctr/size1024/seal_ns", 1700, GateNs)
	has(exp.Rows(), "sealopen/aes-ctr/size1024/open_allocs", 3, GateCount)
}
