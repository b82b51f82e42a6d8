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
//	sgcbench -experiment figure5           # Figure 5: message latency vs size
//	sgcbench -experiment all
//	sgcbench -chaos -seed 4 -events 33     # deterministic fault-schedule run
//
// The chaos mode replays a seeded fault schedule against a live cluster and
// checks the global invariants (see internal/chaos); it exits nonzero on
// any violation, and the same seed always reproduces the same schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	_ "repro/internal/ckd"
	_ "repro/internal/cliques"
	"repro/internal/dh"
	"repro/securespread"
)

func main() {
	experiment := flag.String("experiment", "all", "table2|table3|table4|figure3|figure4|figure5|chaos|all")
	nmax := flag.Int("nmax", 30, "largest group size for the figures")
	step := flag.Int("step", 3, "group size step for the figures")
	batch := flag.Int("batch", 5, "operations averaged per data point")
	bits := flag.Int("bits", 512, "DH modulus size for figure 4 (512 as in the paper; 2048 calibrates the per-exponentiation cost to the paper's testbed)")
	chaosMode := flag.Bool("chaos", false, "shorthand for -experiment chaos")
	seed := flag.Uint64("seed", 1, "chaos schedule seed")
	events := flag.Int("events", 33, "chaos schedule length")
	proto := flag.String("proto", "both", "chaos key agreement protocol: cliques|ckd|both")
	flag.Parse()

	exp := *experiment
	if *chaosMode {
		exp = "chaos"
	}
	if err := run(exp, *nmax, *step, *batch, *bits, *seed, *events, *proto); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(experiment string, nmax, step, batch, bits int, seed uint64, events int, proto string) error {
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
	case "figure5":
		return figure5()
	case "chaos":
		return chaosExperiment(seed, events, proto)
	case "all":
		for _, fn := range []func() error{table2, table3, table4} {
			if err := fn(); err != nil {
				return err
			}
		}
		if err := figure3(nmax, step, batch); err != nil {
			return err
		}
		if err := figure4(nmax, step, batch, bits); err != nil {
			return err
		}
		return figure5()
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// chaosExperiment replays one seeded fault schedule under each requested
// protocol, prints the schedule and invariant trace, and fails on any
// violation. Because the schedule is derived only from the seed, a failure
// reported here reproduces exactly with the same flags (or with
// `go test ./internal/chaos -run TestChaos -chaos.seed=N`).
func chaosExperiment(seed uint64, events int, proto string) error {
	protos := []string{"cliques", "ckd"}
	switch proto {
	case "both":
	case "cliques", "ckd":
		protos = []string{proto}
	default:
		return fmt.Errorf("unknown chaos protocol %q", proto)
	}
	failed := false
	for _, p := range protos {
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
	}
	if failed {
		return fmt.Errorf("chaos: invariant violations at seed %d (deterministic: rerun with -chaos -seed %d)", seed, seed)
	}
	return nil
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
	fmt.Printf("== Figure 4: CPU time of join/leave vs group size (%d-bit modexp, 256-bit share exponent = %s; paper: 2.5 ms Pentium / 12 ms SPARC at 512 bits, full-length exponent) ==\n", bits, fmtDur(unit))
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

// figure5 prints the paper's message-latency-vs-size curve: a live
// 2-member group under the paper's Blowfish bulk cipher, one message in
// flight at a time, 1 B to 100 KB.
func figure5() error {
	const count = 40
	suite := securespread.SuiteBlowfish
	fmt.Printf("== Figure 5: message latency vs size (%s, %d msgs/size) ==\n", suite, count)
	lats, err := bench.MeasureWireLatencySweep(suite, []int{1, 100, 1000, 10000, 100000}, count)
	if err != nil {
		return fmt.Errorf("figure5: %w", err)
	}
	w := newTab()
	fmt.Fprintln(w, "size\tp50\tmean\tmax")
	for _, l := range lats {
		fmt.Fprintf(w, "%dB\t%.2fms\t%.2fms\t%.2fms\n", l.Size, l.P50Ms, l.MeanMs, l.MaxMs)
	}
	w.Flush()
	fmt.Println()
	return nil
}
