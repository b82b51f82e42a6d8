package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/analyze"
)

// The matrix flags make any failing seed a one-line repro:
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=N
var (
	flagSeed    = flag.Uint64("chaos.seed", 0, "replay only this seed (0 = full matrix)")
	flagEvents  = flag.Int("chaos.events", 30, "schedule length per run")
	flagDaemons = flag.Int("chaos.daemons", 3, "initial daemon count per run")
	flagProto   = flag.String("chaos.proto", "", "restrict to one key agreement module")
	flagVerbose = flag.Bool("chaos.v", false, "print schedule and trace even on success")
)

// matrixSeeds is the CI seed set; -chaos.seed replays a single one.
func matrixSeeds() []uint64 {
	if *flagSeed != 0 {
		return []uint64{*flagSeed}
	}
	return []uint64{1, 2, 3, 4, 5, 6, 7, 8}
}

func protos() []string {
	if *flagProto != "" {
		return []string{*flagProto}
	}
	return []string{"cliques", "ckd"}
}

// TestChaosMatrix replays every seed's schedule under both key agreement
// modules — the differential check: the identical fault sequence must leave
// either protocol with all six invariants intact.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is not a -short test")
	}
	for _, seed := range matrixSeeds() {
		sched := Generate(seed, *flagDaemons, *flagEvents, 6, Weights{})
		for _, proto := range protos() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, proto), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Seed: seed, Daemons: *flagDaemons, Events: *flagEvents, Proto: proto}
				res, err := Replay(cfg, sched)
				if err != nil {
					t.Fatalf("chaos replay: %v\nschedule:\n%s", err, sched)
				}
				if !res.Passed() || *flagVerbose {
					t.Logf("schedule:\n%s\ntrace:\n%s", sched, res.TraceString())
				}
				for _, v := range res.Violations {
					t.Errorf("invariant violated: %s", v)
				}
			})
		}
	}
}

// TestScheduleDeterminism pins the harness's core promise: the same seed
// yields the byte-identical schedule, and different seeds diverge.
func TestScheduleDeterminism(t *testing.T) {
	a := Generate(7, 3, 40, 6, Weights{})
	b := Generate(7, 3, 40, 6, Weights{})
	if a.String() != b.String() {
		t.Fatalf("same seed, different schedules:\n%s\n--- vs ---\n%s", a, b)
	}
	if got := len(a.Events); got < 43 { // 3 initial joins + 40 scheduled
		t.Fatalf("schedule has %d events, want >= 43", got)
	}
	if c := Generate(8, 3, 40, 6, Weights{}); c.String() == a.String() {
		t.Fatalf("seeds 7 and 8 produced the identical schedule")
	}
}

// TestScheduleWellFormed checks the generator's model over many seeds:
// every event must be legal at its point in the sequence so the driver can
// replay it verbatim.
func TestScheduleWellFormed(t *testing.T) {
	// Both mixes: the historical default (no resets) and a reset-heavy mix
	// as used by the TCP substrate tests.
	for _, w := range []Weights{{}, {Reset: 12}} {
		checkWellFormed(t, w)
	}
}

func checkWellFormed(t *testing.T, weights Weights) {
	t.Helper()
	for seed := uint64(1); seed <= 50; seed++ {
		s := Generate(seed, 3, 60, 6, weights)
		up := map[string]bool{}
		for _, d := range s.Daemons {
			up[d] = true
		}
		clients := map[string]string{}
		partitioned, dropping := false, false
		for i, ev := range s.Events {
			bad := func(why string) {
				t.Fatalf("seed %d event %d (%s): %s\n%s", seed, i, ev, why, s)
			}
			switch ev.Kind {
			case EvJoin:
				if !up[ev.Daemon] {
					bad("join targets a down daemon")
				}
				if _, dup := clients[ev.Client]; dup {
					bad("client name reused while alive")
				}
				clients[ev.Client] = ev.Daemon
			case EvLeave, EvClientGo, EvSend, EvRefresh:
				if _, ok := clients[ev.Client]; !ok {
					bad("references a dead client")
				}
				if ev.Kind == EvLeave || ev.Kind == EvClientGo {
					delete(clients, ev.Client)
				}
			case EvCrash:
				if !up[ev.Daemon] {
					bad("crashes a down daemon")
				}
				delete(up, ev.Daemon)
				if len(up) == 0 {
					bad("crashed the last daemon")
				}
				for c, host := range clients {
					if host == ev.Daemon {
						delete(clients, c)
					}
				}
				if len(clients) == 0 {
					bad("crash killed the last client")
				}
			case EvRecover:
				if up[ev.Daemon] {
					bad("recovers a daemon that is up")
				}
				up[ev.Daemon] = true
			case EvPartition:
				if len(ev.Split) != 2 || len(ev.Split[0]) == 0 || len(ev.Split[1]) == 0 {
					bad("split is not two non-empty components")
				}
				seen := map[string]bool{}
				for _, comp := range ev.Split {
					for _, d := range comp {
						if !up[d] || seen[d] {
							bad("split names a down or duplicated daemon")
						}
						seen[d] = true
					}
				}
				partitioned = true
			case EvHeal:
				if !partitioned {
					bad("heal without partition")
				}
				partitioned = false
			case EvDropOn:
				if dropping {
					bad("drop burst while already dropping")
				}
				dropping = true
			case EvDropOff:
				if !dropping {
					bad("drop-off without drop-on")
				}
				dropping = false
			case EvReset:
				if !up[ev.Daemon] || !up[ev.Peer] {
					bad("reset names a down daemon")
				}
				if ev.Daemon == ev.Peer {
					bad("reset link endpoints are the same daemon")
				}
			}
		}
		if len(clients) == 0 {
			t.Fatalf("seed %d: schedule ends with no clients", seed)
		}
		if got := fmt.Sprint(sortedKeys(clients)); got != fmt.Sprint(s.FinalClients) {
			t.Fatalf("seed %d: FinalClients %v != replayed model %v", seed, s.FinalClients, sortedKeys(clients))
		}
	}
}

// TestChaosCausalTraceOnViolation forces a synthetic invariant failure and
// checks the post-mortem dump: the run-wide metrics snapshot is populated
// and the causal trace names the view id, KGA state, and last flush round
// of every node before the merged, time-ordered event trace.
func TestChaosCausalTraceOnViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is not a -short test")
	}
	cfg := Config{
		Seed:   5,
		Events: 10,
		extraInvariant: func(d *driver) []string {
			return []string{"synthetic: forced failure (trace-dump test)"}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.Passed() {
		t.Fatal("synthetic invariant did not register as a violation")
	}
	if got := res.TraceString(); !strings.Contains(got, "I7 synthetic") {
		t.Errorf("invariant trace missing the I7 line:\n%s", got)
	}

	if len(res.Metrics.Histograms) == 0 {
		t.Fatal("Metrics snapshot has no histograms")
	}
	if h, ok := res.Metrics.Histograms["rekey_latency"]; !ok || h.Count == 0 {
		t.Errorf("rekey_latency histogram missing or empty: %+v", res.Metrics.Histograms)
	}
	classes := 0
	for name, h := range res.Metrics.Histograms {
		if strings.HasPrefix(name, "rekey_latency{") && h.Count > 0 {
			classes++
		}
	}
	if classes == 0 {
		t.Errorf("no per-class rekey_latency{class} histograms: %+v", res.Metrics.Histograms)
	}
	if h := res.Metrics.Histograms["flush_round_duration"]; h.Count == 0 {
		t.Error("flush_round_duration histogram missing or empty")
	}
	if res.Metrics.Counters["dh_exp_total"] == 0 {
		t.Error("dh_exp_total counter is zero: counter mirroring is not wired")
	}

	if len(res.CausalTrace) == 0 {
		t.Fatal("violation produced no causal trace")
	}
	dump := strings.Join(res.CausalTrace, "\n")
	// Every daemon and every client must get a summary line.
	for _, dn := range res.Schedule.Daemons {
		if !strings.Contains(dump, "node "+dn+":") {
			t.Errorf("causal trace has no summary for daemon %s:\n%s", dn, dump)
		}
	}
	sawClient := false
	for _, line := range res.CausalTrace {
		if line == "-- merged causal trace --" {
			break
		}
		if strings.Contains(line, "kga-state=") {
			sawClient = true
			for _, field := range []string{"view=", "kga-state=", "last-flush="} {
				if !strings.Contains(line, field) {
					t.Errorf("client summary line missing %s: %s", field, line)
				}
			}
		}
	}
	if !sawClient {
		t.Errorf("causal trace has no client summary lines:\n%s", dump)
	}
	// The merged trace must span the causal chain across layers.
	for _, kind := range []string{"view-install", "vs-view-install", "key-install", "kga-state", "first-send", "fault"} {
		if !strings.Contains(dump, kind) {
			t.Errorf("merged causal trace has no %q events:\n%s", kind, dump)
		}
	}

	// The dump embeds the trace analyzer's verdict between the node
	// summaries and the raw merged trace, and the merged trace itself is
	// exposed on the Result for offline analysis (sgctrace report).
	if !strings.Contains(dump, "-- anomaly report --") {
		t.Errorf("causal trace has no anomaly report section:\n%s", dump)
	}
	if len(res.Events) == 0 {
		t.Error("Result.Events is empty; the merged causal trace must always be populated")
	}
	anomalies := analyze.DetectAnomalies(res.Events, analyze.Options{Group: "chaos"})
	for _, a := range anomalies {
		if !strings.Contains(dump, a.String()) {
			t.Errorf("anomaly %q missing from the dump", a.String())
		}
	}
}

// TestChaosFlightBundleOnViolation forces a synthetic failure with a
// FlightDir set and checks that the run freezes itself as a flight
// bundle `sgctrace report` can re-read: bundle.json in the analyze
// schema, one node snapshot per daemon and client, the violations as
// alerts, and the schedule in state.json.
func TestChaosFlightBundleOnViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is not a -short test")
	}
	dir := t.TempDir()
	cfg := Config{
		Seed:      5,
		Events:    10,
		FlightDir: dir,
		extraInvariant: func(d *driver) []string {
			return []string{"synthetic: forced failure (flight-bundle test)"}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.Passed() {
		t.Fatal("synthetic invariant did not register as a violation")
	}
	if res.FlightBundle == "" {
		t.Fatal("violation with FlightDir set wrote no flight bundle")
	}
	if !strings.HasPrefix(filepath.Base(res.FlightBundle), "flight-") {
		t.Fatalf("bundle directory %q lacks the flight- prefix", res.FlightBundle)
	}

	// Re-read it exactly as sgctrace report does: <dir>/bundle.json in
	// the analyze.Bundle schema.
	raw, err := os.ReadFile(filepath.Join(res.FlightBundle, "bundle.json"))
	if err != nil {
		t.Fatalf("bundle.json unreadable: %v", err)
	}
	var b analyze.Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("bundle.json does not parse as analyze.Bundle: %v", err)
	}
	if !strings.Contains(b.Reason, "invariant violation") {
		t.Errorf("bundle reason %q does not name the violation", b.Reason)
	}
	if len(b.Alerts) != len(res.Violations) {
		t.Errorf("bundle alerts %v != run violations %v", b.Alerts, res.Violations)
	}
	// Every daemon appears as a node snapshot; the merged bundle trace
	// matches the run's own merged trace event-for-event.
	nodes := make(map[string]bool)
	for _, n := range b.Nodes {
		nodes[n.Node] = true
	}
	for _, dn := range res.Schedule.Daemons {
		if !nodes[dn] {
			t.Errorf("bundle has no snapshot for daemon %s: %v", dn, nodes)
		}
	}
	// The bundle's merged trace is re-derivable offline and still spans
	// the layers (daemons may record a few more events between the run's
	// own snapshot and the bundle write, so compare content, not length).
	merged := b.MergedEvents()
	if len(merged) == 0 {
		t.Fatal("bundle merges to an empty trace")
	}
	sawFault := false
	for _, e := range merged {
		if e.Comp == "chaos" && e.Kind == "fault" {
			sawFault = true
			break
		}
	}
	if !sawFault {
		t.Error("bundle trace has no chaos/fault events from the driver ring")
	}

	// The profiles and the harness state ride along.
	for _, f := range []string{"goroutine.txt", "state.json"} {
		if st, err := os.Stat(filepath.Join(res.FlightBundle, f)); err != nil || st.Size() == 0 {
			t.Errorf("bundle artifact %s missing or empty (err=%v)", f, err)
		}
	}
	var state struct {
		Seed       uint64   `json:"seed"`
		Schedule   []string `json:"schedule"`
		Violations []string `json:"violations"`
	}
	raw, err = os.ReadFile(filepath.Join(res.FlightBundle, "state.json"))
	if err != nil {
		t.Fatalf("state.json unreadable: %v", err)
	}
	if err := json.Unmarshal(raw, &state); err != nil {
		t.Fatalf("state.json does not parse: %v", err)
	}
	if state.Seed != 5 || len(state.Schedule) == 0 || len(state.Violations) == 0 {
		t.Errorf("state.json incomplete: %+v", state)
	}
}

// TestChaosResultEventsOnPass checks that a clean run still carries the
// merged causal trace (the analyzer consumes passing runs too, e.g. for
// the sgcbench observability report).
func TestChaosResultEventsOnPass(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is not a -short test")
	}
	res, err := Run(Config{Seed: 3, Events: 8})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Events) == 0 {
		t.Fatal("passing run has no merged events")
	}
	rep := analyze.Analyze(res.Events, analyze.Options{Group: "chaos"})
	if len(rep.Rekeys) == 0 {
		t.Fatalf("analyzer found no rekeys in %d events", len(res.Events))
	}
	keyed := 0
	for _, rk := range rep.Rekeys {
		if rk.Complete {
			keyed++
		}
	}
	if keyed == 0 {
		t.Errorf("no correlated rekey completed; rekeys: %d", len(rep.Rekeys))
	}
}

// TestChaosTraceDeterminism replays one seed twice under the same protocol:
// the invariant traces must be byte-identical (the repro guarantee).
func TestChaosTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is not a -short test")
	}
	cfg := Config{Seed: 3, Events: 30}
	var traces [2]string
	for i := range traces {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !res.Passed() {
			t.Fatalf("run %d violations: %v\ntrace:\n%s", i, res.Violations, res.TraceString())
		}
		traces[i] = res.Schedule.String() + res.TraceString()
	}
	if traces[0] != traces[1] {
		t.Fatalf("same seed, different traces:\n%s\n--- vs ---\n%s", traces[0], traces[1])
	}
}
