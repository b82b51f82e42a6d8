// Command sgctrace is the offline companion of the live introspection
// endpoints: it scrapes causal traces and metrics from a running cluster,
// decomposes every rekey into its phases across nodes, flags anomalies,
// and extracts each rekey's causal critical path.
//
// Usage:
//
//	sgctrace collect -out bundle.json [-group G] d01=http://host:port ...
//	sgctrace report [-json] [-group G] [-stall 2s] FILE|BUNDLE_DIR
//	sgctrace crit [-json] [-group G] FILE|BUNDLE_DIR
//
// collect fetches /trace and /metrics from each named debug endpoint
// (spreadd -debug-addr) into one snapshot bundle; an unreachable node is
// recorded as unhealthy rather than failing the collection. report accepts
// a bundle, a flight-recorder bundle directory (it reads the bundle.json
// inside and prints the trigger reason and alerts), or a raw /trace payload
// (or bare event array), and prints the per-class/per-size phase
// decomposition, the correlated rekeys, and any anomalies. crit takes the
// same inputs and prints every rekey's critical path and any causal-order
// violations, exiting nonzero on a violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/causal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "crit":
		err = cmdCrit(os.Args[2:])
	case "-h", "-help", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "sgctrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgctrace:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sgctrace collect -out bundle.json [-group G] name=http://addr ...
  sgctrace report [-json] [-group G] [-stall 2s] FILE|BUNDLE_DIR
  sgctrace crit [-json] [-group G] FILE|BUNDLE_DIR`)
}

// ---- collect ----

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	out := fs.String("out", "", "write the bundle here (default stdout)")
	group := fs.String("group", "", "restrict traces to one process group")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets, err := obs.ParseEndpoints(fs.Args())
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	cl := &http.Client{Timeout: *timeout}
	b := collect(cl, targets, *group)
	for _, n := range b.Nodes {
		if n.Healthy {
			fmt.Fprintf(os.Stderr, "collected %s: %d events (of %d recorded)\n",
				n.Node, len(n.Events), n.TotalRecorded)
		} else {
			fmt.Fprintf(os.Stderr, "node %s unreachable: %s\n", n.Node, n.Error)
		}
	}
	if b.Healthy() == 0 {
		return fmt.Errorf("collect: no node answered")
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// collect scrapes every target's /metrics and /trace into one bundle. A
// node that fails either fetch is kept with Healthy=false and the error —
// partial clusters (a crashed daemon mid-experiment) must still collect.
func collect(cl *http.Client, targets []obs.Endpoint, group string) *analyze.Bundle {
	b := &analyze.Bundle{CollectedAt: time.Now(), Group: group}
	for _, t := range targets {
		ns := analyze.NodeSnapshot{Node: t.Name, Addr: t.Addr}

		var mp obs.MetricsPayload
		if err := obs.FetchJSON(cl, t.Addr, "/metrics", nil, &mp); err != nil {
			ns.Error = err.Error()
		} else {
			ns.Metrics, ns.Process = mp.Metrics, mp.Process
			if mp.Node != "" {
				ns.Node = mp.Node
			}

			var tp obs.TracePayload
			var q url.Values
			if group != "" {
				q = url.Values{"group": {group}}
			}
			if err := obs.FetchJSON(cl, t.Addr, "/trace", q, &tp); err != nil {
				ns.Error = err.Error()
			} else {
				ns.TotalRecorded, ns.Events = tp.Total, tp.Events
				ns.Healthy = true
			}
		}
		b.Nodes = append(b.Nodes, ns)
	}
	return b
}

// ---- report ----

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	group := fs.String("group", "", "restrict the analysis to one process group")
	stall := fs.Duration("stall", analyze.DefaultStallThreshold, "idle time before an open rekey counts as stalled")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("report: want exactly one input file")
	}
	return report(os.Stdout, fs.Arg(0), *jsonOut, analyze.Options{Group: *group, StallThreshold: *stall})
}

func report(w io.Writer, path string, jsonOut bool, opt analyze.Options) error {
	in, err := loadInput(path)
	if err != nil {
		return err
	}
	if in.bundle != nil && !jsonOut {
		if in.bundle.Reason != "" {
			fmt.Fprintf(w, "flight bundle: %s\n", in.bundle.Reason)
			for _, a := range in.bundle.Alerts {
				fmt.Fprintln(w, "  !", a)
			}
			fmt.Fprintln(w)
		}
		for _, n := range in.bundle.Nodes {
			state := "ok"
			if !n.Healthy {
				state = "UNREACHABLE: " + n.Error
			}
			fmt.Fprintf(w, "node %s (%s): %s\n", n.Node, n.Addr, state)
		}
		fmt.Fprintln(w)
	}
	rep := analyze.Analyze(in.events, opt)
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(w)
	return nil
}

// input is one decoded report file, whichever shape it had.
type input struct {
	events []obs.Event
	bundle *analyze.Bundle
}

// loadInput reads a report input and detects its shape: a collect bundle,
// a flight-recorder bundle directory, a /trace payload, or a bare event
// array.
func loadInput(path string) (*input, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		// A flight-recorder bundle directory: the trace lives in its
		// bundle.json; the profiles alongside are for humans.
		path = filepath.Join(path, "bundle.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		var evs []obs.Event
		if err := json.Unmarshal(data, &evs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &input{events: evs}, nil
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case probe["nodes"] != nil:
		var b analyze.Bundle
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &input{bundle: &b, events: b.MergedEvents()}, nil
	case probe["events"] != nil:
		var tp obs.TracePayload
		if err := json.Unmarshal(data, &tp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &input{events: tp.Events}, nil
	}
	return nil, fmt.Errorf("%s: unrecognized input (want a bundle, trace payload, or event array)", path)
}

// ---- crit ----

// cmdCrit builds the happens-before graph of the trace and prints the
// critical path of every completed rekey plus any causal-order
// violations. It exits nonzero when a violation is found, so it doubles
// as a CI gate.
func cmdCrit(args []string) error {
	fs := flag.NewFlagSet("crit", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit paths and violations as JSON")
	group := fs.String("group", "", "restrict the analysis to one process group")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("crit: want exactly one input file")
	}
	in, err := loadInput(fs.Arg(0))
	if err != nil {
		return err
	}
	events := obs.FilterGroup(in.events, *group)
	paths := analyze.CriticalPaths(events)
	violations := causal.Check(events)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Paths      []*analyze.CritPath `json:"paths"`
			Violations []causal.Violation  `json:"violations"`
		}{paths, violations}); err != nil {
			return err
		}
	} else {
		fmt.Printf("== rekey critical paths (%d) ==\n", len(paths))
		for _, p := range paths {
			analyze.FormatCritPath(os.Stdout, p)
		}
		fmt.Printf("\n== causal-order violations (%d) ==\n", len(violations))
		for _, v := range violations {
			fmt.Println(v.String())
		}
		if len(violations) == 0 {
			fmt.Println("none")
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("crit: %d causal-order violation(s)", len(violations))
	}
	return nil
}
