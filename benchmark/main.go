// Command benchmark is the repository's benchmark: four workloads on the
// secure group communication system, end-to-end metrics from an untraced
// run and per-layer metrics from a traced run that also climbs the stack
// ladder. README.md in this directory explains every workload and metric.
//
//	bash benchmark/run.sh --workload bulk_64 --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// outDir receives trace files, relative to the root of the checkout the
// benchmark is run from; .gitignore lists it.
const outDir = "benchmark/out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", defaultSeconds, "measured seconds")
		trace     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		out       = flag.String("out", "", "also write the full report as JSON to this file")
		list      = flag.Bool("list", false, "print workloads and metrics, then exit")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of all workloads and compare them")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it, then exit")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
	case *spec:
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if !selfCheck(os.Stdout, *seed, *seconds) {
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (try -list)", *name))
		}
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds %d: want at least 1", *seconds))
		}
		rep, err := run(os.Stdout, w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if *out != "" {
			if werr := rep.writeFile(*out); werr != nil {
				fatal(werr)
			}
		}
		rep.printResultLine(os.Stdout)
		if err != nil || !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// reportMetric is one metric in the machine-readable report.
type reportMetric struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Value     float64 `json:"value"`
	Samples   int     `json:"samples"`
	Direction string  `json:"better"`
	Bound     float64 `json:"bound,omitempty"`
	Gated     bool    `json:"gated"`
}

// report is everything one run produced.
type report struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Commit     string         `json:"commit"`
	Correct    bool           `json:"correct"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	Metrics    []reportMetric `json:"metrics"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

func newReport(w workloadDef, seed uint64, seconds int, traced bool) *report {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return &report{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: commit,
	}
}

func (r *report) header(w io.Writer, wl workloadDef) {
	fmt.Fprintf(w, "# benchmark %s seed=%d seconds=%d traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d nproc=%d commit=%s\n", r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.Commit)
	fmt.Fprintf(w, "# %s; %s\n", wl.Kind, wl.Why)
	fmt.Fprintf(w, "# all load comes from this process; daemons run in-process; \"remote\" and TCP mean loopback sockets, not a real link\n")
}

// fill copies measured values into the report in definition order. Gated
// metrics must all be present and usable; detail metrics are optional.
func (r *report) fill(defs []metricDef, got map[string]value, gated bool) error {
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			if gated {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			continue
		}
		if gated && (math.IsNaN(v.v) || math.IsInf(v.v, 0)) {
			return fmt.Errorf("metric %s has no value", d.Name)
		}
		r.Metrics = append(r.Metrics, reportMetric{
			Name: d.Name, Unit: d.Unit, Value: v.v, Samples: v.n,
			Direction: d.Better, Bound: d.Bound, Gated: gated,
		})
	}
	return nil
}

func (r *report) table(w io.Writer) {
	fmt.Fprintf(w, "%-36s %16s %-6s %9s  %s\n", "metric", "value", "unit", "samples", "better")
	for _, m := range r.Metrics {
		mark := ""
		if !m.Gated {
			mark = " (not gated)"
		}
		fmt.Fprintf(w, "%-36s %16.4f %-6s %9d  %s%s\n", m.Name, m.Value, m.Unit, m.Samples, m.Direction, mark)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

func (r *report) writeFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResultLine prints the one-line result the driver reads: the gated
// metrics of this kind of run, and nothing else.
func (r *report) printResultLine(w io.Writer) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		if m.Gated {
			line.Metrics[m.Name] = mv{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// run executes one workload once and prints its header and metric table.
func run(w io.Writer, wl workloadDef, seed uint64, seconds int, traced bool) (*report, error) {
	rep := newReport(wl, seed, seconds, traced)
	rep.header(w, wl)
	var (
		out outcome
		err error
	)
	if traced {
		out, err = runTraced(w, wl, seed, seconds, rep)
		if err == nil {
			err = rep.fill(perLayer, out.metrics, true)
		}
	} else {
		out, err = runUntraced(wl, seed, seconds)
		if err == nil {
			err = rep.fill(endToEnd, out.metrics, true)
		}
		if err == nil {
			err = rep.fill(detail, out.metrics, false)
		}
	}
	rep.Attempted, rep.Failed = out.attempted, out.failed
	rep.Correct = err == nil && out.failed == 0 && out.attempted > 0
	rep.table(w)
	return rep, err
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n  %-13s %s\n", wl.Name, wl.Kind, "", wl.Why)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{
		{"end-to-end metrics (untraced run, every workload, gated)", endToEnd},
		{"end-to-end detail (untraced run, where it applies, compared by -selfcheck)", detail},
		{"per-layer metrics (traced run, every workload, no bound)", perLayer},
	} {
		fmt.Fprintf(w, "%s:\n", group.title)
		for _, d := range group.defs {
			fmt.Fprintf(w, "  %-36s %-6s %-6s", d.Name, d.Unit, d.Better)
			if d.Bound > 0 {
				fmt.Fprintf(w, " bound %.0f%%", d.Bound*100)
			}
			if d.Moves != "" {
				fmt.Fprintf(w, " -> %s", d.Moves)
			}
			fmt.Fprintln(w)
		}
	}
}

// writeSpec prints BENCHMARK.json as this program defines it.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, x := range workloads {
		spec.Workloads = append(spec.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// selfCheck runs two full sets of untraced runs, the sets interleaved
// workload by workload so that slow drift of the machine hits both alike,
// and reports whether every end-to-end metric agrees within its bound.
func selfCheck(w io.Writer, seed uint64, seconds int) bool {
	type cell struct{ a, b reportMetric }
	var rows []string
	cells := map[string]*cell{}
	ok := true
	for _, wl := range workloads {
		for set := 0; set < 2; set++ {
			rep, err := run(w, wl, seed+uint64(set), seconds, false)
			if err != nil {
				fmt.Fprintf(w, "selfcheck: %s set %d: %v\n", wl.Name, set, err)
				ok = false
			}
			ok = ok && rep.Correct
			for _, m := range rep.Metrics {
				key := wl.Name + " " + m.Name
				if cells[key] == nil {
					cells[key] = &cell{}
					rows = append(rows, key)
				}
				if set == 0 {
					cells[key].a = m
				} else {
					cells[key].b = m
				}
			}
		}
	}
	sort.Strings(rows)
	fmt.Fprintf(w, "\n%-40s %14s %14s %8s %7s\n", "workload metric", "set A", "set B", "differ", "bound")
	for _, key := range rows {
		c := cells[key]
		diff := 0.0
		if c.a.Value != 0 {
			diff = math.Abs(c.b.Value-c.a.Value) / math.Abs(c.a.Value)
		} else if c.b.Value != 0 {
			diff = math.Inf(1)
		}
		verdict := ""
		if c.a.Bound > 0 && diff > c.a.Bound || c.a.Bound == 0 && diff != 0 {
			verdict = "  FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%-40s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", key, c.a.Value, c.b.Value, diff*100, c.a.Bound*100, verdict)
	}
	if ok {
		fmt.Fprintln(w, "selfcheck: PASS")
	} else {
		fmt.Fprintln(w, "selfcheck: FAIL")
	}
	return ok
}
