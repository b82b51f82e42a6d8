package analyze

import (
	"encoding/json"
	"fmt"
	"os"
)

// Gate is how a tracked metric is compared with its baseline.
type Gate int

const (
	// GateCount is a deterministic count (exponentiations, encoded frame
	// bytes, allocations): any growth beyond CountTolerance fails.
	GateCount Gate = iota
	// GateMs is a wall-clock time in milliseconds, GateNs one in
	// nanoseconds: new > old*ratio fails, unless the growth is below the
	// noise floor. The ratios are deliberately generous — they catch
	// order-of-magnitude regressions, not jitter.
	GateMs
	GateNs
	// GateRate is a throughput in msgs/s and regresses downward:
	// new < old/ratio fails, unless the drop is below the floor.
	GateRate
)

// gateDefaults are each ratio gate's default ratio and noise floor, in
// the gate's own unit.
var gateDefaults = [...]struct{ ratio, floor float64 }{
	GateMs:   {10, 50},
	GateNs:   {10, 2000},
	GateRate: {3, 500},
}

// Row is one gated metric of a bench file. Every bench schema flattens
// itself to rows (its Rows method); Diff compares rows by Metric.
type Row struct {
	Metric string
	Value  float64
	Gate   Gate
}

// DiffOptions overrides the gates' defaults.
type DiffOptions struct {
	// Ratio replaces the default ratio of every ratio-gated row (0 keeps
	// each gate's own).
	Ratio float64
	// Floor replaces the default noise floor of every ratio-gated row, in
	// the row's unit (0 keeps each gate's own, negative disables it).
	Floor float64
	// CountTolerance is the allowed growth of a count row. The default 0
	// fails on any increase: counts are exact protocol properties.
	CountTolerance int
}

// Regression is one tracked metric that got worse.
type Regression struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Limit  float64 `json:"limit"`
}

func (r Regression) String() string {
	return fmt.Sprintf("REGRESSION %s: %.3g -> %.3g (limit %.3g)", r.Metric, r.Old, r.New, r.Limit)
}

// Diff compares a fresh run's rows against the baseline's and returns
// every metric that regressed under its gate, in baseline order. Only
// metrics present on both sides are compared, and a time or rate the
// baseline did not observe (<= 0) gates nothing; if nothing at all was
// comparable, that is itself reported (the sweep broke, or the files are
// of different kinds).
func Diff(oldRows, newRows []Row, opt DiffOptions) []Regression {
	fresh := make(map[string]float64, len(newRows))
	for _, r := range newRows {
		fresh[r.Metric] = r.Value
	}
	var out []Regression
	compared := 0
	for _, r := range oldRows {
		newV, ok := fresh[r.Metric]
		if !ok || (r.Gate != GateCount && r.Value <= 0) {
			continue
		}
		compared++
		limit, floor := r.Value+float64(opt.CountTolerance), -1.0
		if r.Gate != GateCount {
			ratio := gateDefaults[r.Gate].ratio
			if opt.Ratio > 0 {
				ratio = opt.Ratio
			}
			if floor = opt.Floor; floor == 0 {
				floor = gateDefaults[r.Gate].floor
			}
			if limit = r.Value * ratio; r.Gate == GateRate {
				limit = r.Value / ratio
			}
		}
		worse, past := newV-r.Value, newV > limit
		if r.Gate == GateRate {
			worse, past = r.Value-newV, newV < limit
		}
		if past && (floor < 0 || worse > floor) {
			out = append(out, Regression{Metric: r.Metric, Old: r.Value, New: newV, Limit: limit})
		}
	}
	if compared == 0 {
		out = append(out, Regression{Metric: "coverage/comparable_metrics", Old: 1, New: 0, Limit: 1})
	}
	return out
}

// benchSchemas lists every bench file schema by a top-level key only it
// has. A new gated baseline is one line here plus its Rows method.
var benchSchemas = []struct {
	key string
	new func() schema
}{
	{"protocols", func() schema { return new(RekeyBench) }},
	{"codec", func() schema { return new(WireBench) }},
	{"throughput", func() schema { return new(ThroughputBench) }},
	{"PowG", func() schema { return new(ExpReport) }},
}

type schema interface{ Rows() []Row }

// LoadRows reads a bench file of any known schema and flattens it.
func LoadRows(path string) ([]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, s := range benchSchemas {
		if probe[s.key] == nil {
			continue
		}
		b := s.new()
		if err := json.Unmarshal(data, b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return b.Rows(), nil
	}
	return nil, fmt.Errorf("%s: not a BENCH_rekey, BENCH_wire, BENCH_throughput or BENCH_exp file", path)
}
