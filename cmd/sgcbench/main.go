// Command sgcbench regenerates the tables and figures of the paper's
// evaluation section as formatted text, using the same measurement code as
// the root benchmarks.
//
// Usage:
//
//	sgcbench -experiment table2            # Table 2: join exponentiations
//	sgcbench -experiment table3            # Table 3: leave exponentiations
//	sgcbench -experiment table4            # Table 4: serial totals
//	sgcbench -experiment figure3 -nmax 30  # Figure 3: total join/leave time
//	sgcbench -experiment figure4 -nmax 30  # Figure 4: CPU time per op
//	sgcbench -experiment all
//	sgcbench -chaos -seed 4 -events 33     # deterministic fault-schedule run
//	sgcbench -sizes 2..8                   # rekey phase-decomposition sweep
//	sgcbench -wire                         # Figure 5: wire codec + latency/size
//	sgcbench -bulk                         # Figure 4: bulk AGREED throughput
//	sgcbench -exp                          # exponentiation + Seal/Open fast paths
//
// The chaos mode replays a seeded fault schedule against a live cluster and
// checks the five global invariants (see internal/chaos); it exits nonzero
// on any violation, and the same seed always reproduces the same schedule.
//
// The sizes sweep grows a live secure group across the requested sizes
// under both key agreement protocols, decomposes every rekey into its
// phases with the trace analyzer, and writes BENCH_rekey.json — the input
// of the `sgctrace diff` regression gate (`make bench-diff`).
//
// The wire mode measures the data plane: per-kind encoded frame sizes and
// encode/decode times for the binary wire codec, plus a secured
// message-latency-vs-size sweep (1B..100KB) over a live two-member
// cluster, reproducing the shape of the paper's Figure 5.
// It writes BENCH_wire.json — the input of the `sgctrace diff` data-plane
// gate (`make bench-wire-diff`).
//
// The bulk mode measures sustained encrypted AGREED multicast throughput
// over the full stack — message-size, cipher-suite and group-size sweeps,
// best of several runs per point — the paper's claim that once the key is
// agreed, bulk data privacy is cheap. It writes BENCH_throughput.json —
// the input of the `sgctrace diff` throughput gate (`make bench-bulk-diff`).
//
// The exp mode times the exponentiation fast paths (fixed-base PowG, the
// ExpBatch pool) and Seal/Open, and writes BENCH_exp.json (`make
// bench-exp`, gated by `make bench-exp-diff`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	_ "repro/internal/ckd"
	_ "repro/internal/cliques"
	"repro/internal/dh"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/spread"
	"repro/securespread"
)

// cryptCounters snapshots the process-global cipher throughput counters
// (crypt lives on obs.Default, shared by every in-process client).
func cryptCounters() map[string]int64 {
	out := make(map[string]int64)
	for name, v := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(name, "crypt_") {
			out[name] = v
		}
	}
	return out
}

func main() {
	experiment := flag.String("experiment", "all", "table2|table3|table4|figure3|figure4|chaos|all")
	nmax := flag.Int("nmax", 30, "largest group size for the figures")
	step := flag.Int("step", 3, "group size step for the figures")
	batch := flag.Int("batch", 5, "operations averaged per data point")
	bits := flag.Int("bits", 512, "DH modulus size for figure 4 (512 as in the paper; 2048 calibrates the per-exponentiation cost to the paper's testbed)")
	chaosMode := flag.Bool("chaos", false, "shorthand for -experiment chaos")
	seed := flag.Uint64("seed", 1, "chaos schedule seed")
	events := flag.Int("events", 33, "chaos schedule length")
	proto := flag.String("proto", "both", "chaos/sweep key agreement protocol: cliques|ckd|both")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "chaos mode: write the observability report here (empty disables)")
	sizesSpec := flag.String("sizes", "", `rekey sweep sizes ("2..8" or "2,4,8"); runs the sweep experiment`)
	rekeyOut := flag.String("rekey-out", "BENCH_rekey.json", "sweep mode: write the phase-decomposition file here (empty disables)")
	wireMode := flag.Bool("wire", false, "data-plane sweep: wire-codec microbench + message-latency-vs-size over the live stack")
	wireOut := flag.String("wire-out", "BENCH_wire.json", "wire mode: write the data-plane report here (empty disables)")
	wireCount := flag.Int("wire-count", 40, "wire mode: messages measured per payload size")
	bulkMode := flag.Bool("bulk", false, "bulk-throughput sweep: sustained AGREED multicast rate over message sizes, suites and group sizes")
	bulkOut := flag.String("bulk-out", "BENCH_throughput.json", "bulk mode: write the throughput report here (empty disables)")
	bulkCount := flag.Int("bulk-count", 20000, "bulk mode: messages per sweep point")
	expMode := flag.Bool("exp", false, "time the exponentiation fast paths and Seal/Open")
	expOut := flag.String("exp-out", "BENCH_exp.json", "exp mode: write the report here (empty disables)")
	flag.Parse()

	exp := *experiment
	if *chaosMode {
		exp = "chaos"
	}
	if *sizesSpec != "" {
		exp = "sweep"
	}
	var err error
	switch {
	case *wireMode || exp == "wire":
		err = wireExperiment(*wireOut, *wireCount)
	case *bulkMode:
		err = bulkExperiment(*bulkOut, *bulkCount)
	case *expMode:
		err = expExperiment(*expOut)
	default:
		err = run(exp, *nmax, *step, *batch, *bits, *seed, *events, *proto, *obsOut, *sizesSpec, *rekeyOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeReport writes a BENCH_*.json report; an empty path disables it.
func writeReport(path string, v any) error {
	if path == "" {
		return nil
	}
	if err := bench.WriteJSON(path, v); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run(experiment string, nmax, step, batch, bits int, seed uint64, events int, proto, obsOut, sizesSpec, rekeyOut string) error {
	switch experiment {
	case "table2":
		return table2()
	case "table3":
		return table3()
	case "table4":
		return table4()
	case "figure3":
		return figure3(nmax, step, batch)
	case "figure4":
		return figure4(nmax, step, batch, bits)
	case "chaos":
		return chaosExperiment(seed, events, proto, obsOut)
	case "sweep":
		return sweepExperiment(sizesSpec, batch, proto, rekeyOut)
	case "all":
		for _, fn := range []func() error{table2, table3, table4} {
			if err := fn(); err != nil {
				return err
			}
		}
		if err := figure3(nmax, step, batch); err != nil {
			return err
		}
		return figure4(nmax, step, batch, bits)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// chaosExperiment replays one seeded fault schedule under each requested
// protocol, prints the schedule and invariant trace, and fails on any
// violation. Because the schedule is derived only from the seed, a failure
// reported here reproduces exactly with the same flags (or with
// `go test ./internal/chaos -run TestChaos -chaos.seed=N`).
func chaosExperiment(seed uint64, events int, proto, obsOut string) error {
	protos := []string{"cliques", "ckd"}
	switch proto {
	case "both":
	case "cliques", "ckd":
		protos = []string{proto}
	default:
		return fmt.Errorf("unknown chaos protocol %q", proto)
	}
	report := obsReport{Seed: seed, Events: events, Protocols: make(map[string]protoObs)}
	failed := false
	for _, p := range protos {
		cryptBefore := cryptCounters()
		res, err := chaos.Run(chaos.Config{Seed: seed, Events: events, Proto: p})
		if err != nil {
			return fmt.Errorf("chaos %s: %w", p, err)
		}
		fmt.Printf("== chaos seed=%d proto=%s ==\n", seed, p)
		fmt.Print(res.Schedule.String())
		fmt.Print(res.TraceString())
		for _, v := range res.Violations {
			fmt.Println("VIOLATION:", v)
		}
		if !res.Passed() {
			failed = true
			for _, line := range res.CausalTrace {
				fmt.Println(line)
			}
		}
		fmt.Printf("final epoch %d, %d warnings\n\n", res.FinalEpoch, res.Warnings)
		report.Protocols[p] = summarizeObs(res, cryptBefore)
	}
	if err := writeReport(obsOut, report); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("chaos: invariant violations at seed %d (deterministic: rerun with -chaos -seed %d)", seed, seed)
	}
	return nil
}

// sweepExperiment runs the rekey phase-decomposition sweep: for each
// protocol, grow a live group across the requested sizes (with join/leave
// churn and a key refresh at each), print the analyzer's per-class/
// per-size phase tables, and write the BENCH_rekey.json file that
// `sgctrace diff` gates against a baseline.
func sweepExperiment(sizesSpec string, batch int, proto, rekeyOut string) error {
	sizes, err := bench.ParseSizes(sizesSpec)
	if err != nil {
		return err
	}
	protos := []string{"cliques", "ckd"}
	switch proto {
	case "both":
	case "cliques", "ckd":
		protos = []string{proto}
	default:
		return fmt.Errorf("unknown sweep protocol %q", proto)
	}

	out := analyze.RekeyBench{Sizes: sizes, Batch: batch, Protocols: make(map[string]*analyze.ProtoBench)}
	for _, p := range protos {
		fmt.Printf("== rekey sweep proto=%s sizes=%v batch=%d ==\n", p, sizes, batch)
		res, err := bench.RekeySweep(p, sizes, batch)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", p, err)
		}
		analyze.WriteSummaryTable(os.Stdout, res.Summaries)
		fmt.Println()
		out.Protocols[p] = &analyze.ProtoBench{Phases: res.Summaries, Exps: res.Exps}
	}
	return writeReport(rekeyOut, out)
}

// wireExperiment runs the data-plane sweep behind BENCH_wire.json: the
// per-kind wire-codec microbenchmark and the end-to-end
// message-latency-vs-size sweep over a live 2-member secure group,
// mirroring the paper's message-latency figure.
func wireExperiment(wireOut string, count int) error {
	fmt.Println("== wire codec microbench (per kind) ==")
	out := analyze.WireBench{}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tbytes\tencode\tdecode")
	for _, s := range spread.MeasureWireCodec(2000) {
		out.Codec = append(out.Codec, analyze.WireCodecPoint(s))
		fmt.Fprintf(tw, "%s\t%d\t%.0fns\t%.0fns\n", s.Kind, s.CodecBytes, s.CodecEncNs, s.CodecDecNs)
	}
	tw.Flush()

	// 1 B to 100 KB, the span of the paper's message-latency figure.
	sizes := []int{1, 100, 1000, 10000, 100000}
	suite := securespread.SuiteBlowfish // the paper's bulk cipher
	fmt.Printf("\n== message latency vs size (%s, %d msgs/size) ==\n", suite, count)
	lats, err := bench.MeasureWireLatencySweep(suite, sizes, count)
	if err != nil {
		return fmt.Errorf("wire latency sweep: %w", err)
	}
	fmt.Fprintln(tw, "size\tp50\tmean\tmax")
	out.Latency = lats
	for _, l := range lats {
		fmt.Fprintf(tw, "%dB\t%.2fms\t%.2fms\t%.2fms\n", l.Size, l.P50Ms, l.MeanMs, l.MaxMs)
	}
	tw.Flush()

	return writeReport(wireOut, out)
}

// bulkExperiment runs the bulk-throughput sweep behind
// BENCH_throughput.json: sustained encrypted AGREED multicast rate from
// one member of a secured group, end-to-end (the clock stops when the
// slowest member has received everything), best of bench.BulkReps runs
// per sweep point.
func bulkExperiment(bulkOut string, count int) error {
	fmt.Printf("== bulk AGREED throughput (best of %d runs, %d msgs/point) ==\n", bench.BulkReps, count)
	results, err := bench.RunBulkSweep(bench.DefaultBulkSweep(count))
	if err != nil {
		return err
	}
	out := analyze.ThroughputBench{Points: results}
	tw := newTab()
	fmt.Fprintln(tw, "proto\tsuite\tmembers\tsize\tmsgs/s\tMB/s")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%dB\t%.0f\t%.2f\n",
			r.Proto, r.Suite, r.Members, r.MsgSize, r.MsgsPerSec, r.MBPerSec)
	}
	tw.Flush()

	return writeReport(bulkOut, out)
}

// expExperiment records the exponentiation fast-path performance behind
// BENCH_exp.json: fixed-base speedup, batch-pool scaling, Seal/Open cost.
func expExperiment(expOut string) error {
	rep, err := bench.MeasureExp()
	if err != nil {
		return err
	}
	for _, p := range rep.PowG {
		fmt.Printf("PowG %d-bit: generic %v, fixed %v (%.2fx)\n", p.Bits, p.Generic, p.Fixed, p.Speedup)
	}
	for _, p := range rep.Batch {
		fmt.Printf("ExpBatch n=%d workers=%d: %v (%.2fx)\n", p.N, p.Workers, p.Total, p.Scaling)
	}
	for _, p := range rep.SealOpen {
		fmt.Printf("%s %dB: seal %dns (%.0f allocs), open %dns (%.0f allocs)\n",
			p.Suite, p.Size, p.SealNs, p.SealAllocs, p.OpenNs, p.OpenAllocs)
	}
	return writeReport(expOut, rep)
}

// obsReport is the BENCH_obs.json schema: per-protocol rekey latency
// histograms keyed by membership-event class, flush-round durations, and
// the run-wide counters, all from the chaos run's shared metrics registry.
type obsReport struct {
	Seed      uint64              `json:"seed"`
	Events    int                 `json:"events"`
	Protocols map[string]protoObs `json:"protocols"`
}

type protoObs struct {
	FinalEpoch   uint64                           `json:"final_epoch"`
	Passed       bool                             `json:"passed"`
	RekeyLatency map[string]obs.HistogramSnapshot `json:"rekey_latency_by_class"`
	FlushRound   obs.HistogramSnapshot            `json:"flush_round"`
	Counters     map[string]int64                 `json:"counters"`
	// DHExp is the run-wide modular exponentiation count per operation
	// label, summed over every client (the live counterpart of Tables
	// 2-4).
	DHExp map[string]int64 `json:"dh_exp"`
	// Crypt is this protocol run's share of the process-global cipher
	// throughput counters (crypt_seal_msgs, crypt_open_bytes, ...).
	Crypt map[string]int64 `json:"crypt"`
}

// summarizeObs reshapes a run's metrics snapshot: "rekey_latency{class}"
// histograms become a class-keyed map ("all" is the unlabelled aggregate),
// and per-client exponentiation counters aggregate by label. cryptBefore
// is the process-global counter state before the run, so each protocol is
// attributed only its own Seal/Open traffic.
func summarizeObs(res *chaos.Result, cryptBefore map[string]int64) protoObs {
	out := protoObs{
		FinalEpoch:   res.FinalEpoch,
		Passed:       res.Passed(),
		RekeyLatency: make(map[string]obs.HistogramSnapshot),
		Counters:     res.Metrics.Counters,
		DHExp:        make(map[string]int64),
		Crypt:        make(map[string]int64),
	}
	for _, perClient := range res.Exps {
		for label, n := range perClient {
			out.DHExp[label] += int64(n)
		}
	}
	for name, v := range cryptCounters() {
		out.Crypt[name] = v - cryptBefore[name]
	}
	for name, h := range res.Metrics.Histograms {
		switch {
		case name == "rekey_latency":
			out.RekeyLatency["all"] = h
		case strings.HasPrefix(name, "rekey_latency{") && strings.HasSuffix(name, "}"):
			class := name[len("rekey_latency{") : len(name)-1]
			out.RekeyLatency[class] = h
		case name == "flush_round_duration":
			out.FlushRound = h
		}
	}
	return out
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func table2() error {
	fmt.Println("== Table 2: exponentiations for JOIN (n = group size after join) ==")
	w := newTab()
	fmt.Fprintln(w, "protocol\tn\tcontroller\tpaper\tnew member\tpaper")
	for _, proto := range []string{"cliques", "ckd"} {
		for _, n := range []int{4, 8, 16, 32} {
			c, err := bench.JoinCounts(proto, n)
			if err != nil {
				return err
			}
			var paperCtrl, paperNew int
			if proto == "cliques" {
				paperCtrl, paperNew = n+1, 2*n-1
			} else {
				paperCtrl, paperNew = n+2, 4
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
				proto, n, c.Roles[0].Total, paperCtrl, c.Roles[1].Total, paperNew)
		}
	}
	w.Flush()

	// Per-line-item breakdown at n=8, mirroring the table's rows.
	fmt.Println("\n-- line items at n=8 --")
	for _, proto := range []string{"cliques", "ckd"} {
		c, err := bench.JoinCounts(proto, 8)
		if err != nil {
			return err
		}
		for _, role := range c.Roles {
			fmt.Printf("%s %s:\n", proto, role.Role)
			for op, k := range role.ByOp {
				fmt.Printf("    %-34s %d\n", op, k)
			}
		}
	}
	fmt.Println()
	return nil
}

func table3() error {
	fmt.Println("== Table 3: controller exponentiations for LEAVE (n = group size before leave) ==")
	w := newTab()
	fmt.Fprintln(w, "protocol\tcase\tn\tmeasured\tpaper")
	for _, proto := range []string{"cliques", "ckd"} {
		for _, ctrlLeaves := range []bool{false, true} {
			kind := "member leaves"
			if ctrlLeaves {
				kind = "controller leaves"
			}
			for _, n := range []int{4, 8, 16, 32} {
				c, err := bench.LeaveCounts(proto, n, ctrlLeaves)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", proto, kind, n, c.SerialTotal, c.PaperSerial)
			}
		}
	}
	w.Flush()
	fmt.Println()
	return nil
}

func table4() error {
	fmt.Println("== Table 4: total serial exponentiations per operation ==")
	w := newTab()
	fmt.Fprintln(w, "protocol\tn\tjoin\tpaper\tleave\tpaper\tctrl-leave\tpaper")
	for _, proto := range []string{"cliques", "ckd"} {
		for _, n := range []int{4, 8, 16, 32} {
			row, err := bench.Table4(proto, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				proto, n, row.Join, row.PaperJoin, row.Leave, row.PaperLeave,
				row.CtrlLeave, row.PaperCtrlLeave)
		}
	}
	w.Flush()
	fmt.Println("(paper: cliques join 3n, leave n; ckd join n+6, leave n-1, controller leave 3n-5)")
	fmt.Println()
	return nil
}

func sizes(nmax, step int) []int {
	var out []int
	for n := 3; n <= nmax; n += step {
		out = append(out, n)
	}
	return out
}

func figure3(nmax, step, batch int) error {
	fmt.Println("== Figure 3: total time of one join/leave vs group size (paper topology, wall clock) ==")
	w := newTab()
	fmt.Fprintln(w, "series\tn\tjoin\tleave")
	for _, proto := range []string{"cliques", "ckd"} {
		for _, n := range sizes(nmax, step) {
			st, err := bench.MeasureStack(proto, n, batch)
			if err != nil {
				return fmt.Errorf("figure3 %s n=%d: %w", proto, n, err)
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", proto, n, fmtDur(st.Join), fmtDur(st.Leave))
			w.Flush()
		}
	}
	for _, n := range sizes(nmax, step) {
		st, err := bench.MeasureFlushOnly(n, batch)
		if err != nil {
			return fmt.Errorf("figure3 flush-only n=%d: %w", n, err)
		}
		fmt.Fprintf(w, "flush-only\t%d\t%s\t%s\n", n, fmtDur(st.Join), fmtDur(st.Leave))
		w.Flush()
	}
	fmt.Println()
	return nil
}

func figure4(nmax, step, batch, bits int) error {
	group, err := dh.GroupForBits(bits)
	if err != nil {
		return err
	}
	unit := bench.ModExpCost(group, 16)
	fmt.Printf("== Figure 4: CPU time of join/leave vs group size (%d-bit modexp = %s; paper: 2.5 ms Pentium / 12 ms SPARC at 512 bits) ==\n", bits, fmtDur(unit))
	w := newTab()
	fmt.Fprintln(w, "protocol\tn\tjoin-cpu\tleave-cpu\tjoin-exps\tmodexp-share")
	for _, proto := range []string{"cliques", "ckd"} {
		for _, n := range sizes(nmax, step) {
			c, err := bench.MeasureCPU(proto, n, batch, group)
			if err != nil {
				return fmt.Errorf("figure4 %s n=%d: %w", proto, n, err)
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%d\t%.0f%%\n",
				proto, n, fmtDur(c.Join), fmtDur(c.Leave), c.JoinExps, c.JoinExpShare*100)
			w.Flush()
		}
	}
	fmt.Println()
	return nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
