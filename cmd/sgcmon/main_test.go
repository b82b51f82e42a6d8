package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// liveNode is one fake daemon: a scope served by its debug mux.
type liveNode struct {
	sc  *obs.Scope
	srv *httptest.Server
}

func startNode(t *testing.T, name string) *liveNode {
	t.Helper()
	sc := obs.NewScope(name, "test")
	srv := httptest.NewServer(obs.Mux(sc))
	t.Cleanup(srv.Close)
	return &liveNode{sc: sc, srv: srv}
}

// subscribeAll mirrors main(): the monitor polls every node once per
// interval until the test ends.
func subscribeAll(t *testing.T, mon *monitor, nodes map[string]*liveNode) {
	t.Helper()
	for name, n := range nodes {
		mon.addNode(name, n.srv.URL)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		mon.pollEvery(ctx, 10*time.Millisecond)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

func waitView(t *testing.T, mon *monitor, pred func(*FleetView) bool) *FleetView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := mon.view(time.Now())
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet view never satisfied predicate; last: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFleetAggregation(t *testing.T) {
	nodes := map[string]*liveNode{
		"d1": startNode(t, "d1"),
		"d2": startNode(t, "d2"),
	}
	mon := newMonitor(time.Minute, time.Second, "")
	subscribeAll(t, mon, nodes)

	now := time.Now()
	for name, n := range nodes {
		n.sc.Record(obs.Event{Comp: "spread", Kind: "view-install", View: "v1/2", T: now})
		n.sc.Record(obs.Event{Comp: "core", Kind: "key-install", Group: "g", KeyEpoch: 3, View: "v1/2", T: now})
		n.sc.Reg.Counter(obs.LabelName("spread_wire_sent_msgs", "data")).Add(30)
		n.sc.Reg.Counter(obs.LabelName("spread_wire_sent_bytes", "data")).Add(3000)
		h := n.sc.Reg.Histogram(obs.LabelName("rekey_latency", "join"), nil)
		h.Observe(10 * time.Millisecond)
		if name == "d2" {
			h.Observe(20 * time.Millisecond)
		}
	}

	v := waitView(t, mon, func(v *FleetView) bool {
		if len(v.Rekey) == 0 || len(v.SendRates) == 0 {
			return false
		}
		return v.Rekey["rekey_latency{join}"].Count == 3
	})

	if !v.Converged || len(v.Alerts) != 0 {
		t.Fatalf("healthy fleet: converged=%v alerts=%v", v.Converged, v.Alerts)
	}
	if got := v.Views["v1/2"]; len(got) != 2 {
		t.Fatalf("view convergence table = %v", v.Views)
	}
	if got := v.Epochs["g/epoch-3"]; len(got) != 2 {
		t.Fatalf("epoch convergence table = %v", v.Epochs)
	}
	r := v.SendRates["data"]
	if r.MsgsPerSec <= 0 || r.BytesPerSec <= 0 {
		t.Fatalf("send rates = %+v", r)
	}
	// 60 msgs across the fleet over an effective window >= 1s.
	if r.MsgsPerSec > 60 {
		t.Fatalf("msgs/s = %.1f, want <= 60", r.MsgsPerSec)
	}
	h := v.Rekey["rekey_latency{join}"]
	if h.P50Ms <= 0 || h.MaxMs < h.P50Ms {
		t.Fatalf("merged histogram = %+v", h)
	}

	var buf bytes.Buffer
	v.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"d1", "d2", "convergence: OK", "alerts: none", "rekey_latency{join}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

// TestLiveAnomalyMatchesPostHocReport is the acceptance check: the alerts
// sgcmon raises live are the same anomalies `sgctrace report` finds in
// the merged trace after the fact.
func TestLiveAnomalyMatchesPostHocReport(t *testing.T) {
	n := startNode(t, "d1")
	mon := newMonitor(time.Minute, time.Second, "")
	subscribeAll(t, mon, map[string]*liveNode{"d1": n})

	// A wedged rekey: view installed, no key install, trace runs on.
	base := time.Now()
	n.sc.Record(obs.Event{Comp: "flush", Kind: "vs-view-install", Group: "g", View: "v2/3", T: base})
	n.sc.Record(obs.Event{Comp: "spread", Kind: "tick", T: base.Add(10 * time.Second)})

	v := waitView(t, mon, func(v *FleetView) bool { return len(v.Anomalies) > 0 })

	// Post-hoc: the same detectors over the merged events, as sgctrace
	// report would run them on a collected bundle.
	mon.mu.Lock()
	events := append([]obs.Event(nil), mon.nodes["d1"].events...)
	mon.mu.Unlock()
	postHoc := analyze.DetectAnomalies(obs.Merge(events), analyze.Options{StallThreshold: time.Second})

	if !reflect.DeepEqual(v.Anomalies, postHoc) {
		t.Fatalf("live anomalies != post-hoc report:\nlive: %+v\npost: %+v", v.Anomalies, postHoc)
	}
	found := false
	for _, a := range v.Alerts {
		if strings.Contains(a, "no-key-install") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-key-install never alerted: %v", v.Alerts)
	}
}

func TestDivergenceAndUnreachableAlerts(t *testing.T) {
	mon := newMonitor(time.Minute, time.Second, "")
	mon.addNode("d1", "http://x")
	mon.addNode("d2", "http://y")
	now := time.Now()

	mon.apply("d1", pollResult{at: now, trace: obs.TracePayload{Events: []obs.Event{
		{Comp: "spread", Kind: "view-install", View: "v1/2", T: now, Node: "d1", Seq: 1},
		{Comp: "core", Kind: "key-install", Group: "g", KeyEpoch: 2, T: now, Node: "d1", Seq: 2},
	}}})
	mon.apply("d2", pollResult{at: now, trace: obs.TracePayload{Events: []obs.Event{
		{Comp: "spread", Kind: "view-install", View: "v1/9", T: now, Node: "d2", Seq: 1},
		{Comp: "core", Kind: "key-install", Group: "g", KeyEpoch: 7, T: now, Node: "d2", Seq: 2},
	}}})

	v := mon.view(time.Now())
	if v.Converged {
		t.Fatalf("diverged fleet reported converged: %+v", v)
	}
	joined := strings.Join(v.Alerts, "\n")
	if !strings.Contains(joined, "daemon views diverge") || !strings.Contains(joined, "key epochs diverge") {
		t.Fatalf("alerts missing divergence: %v", v.Alerts)
	}

	// A node whose poll fails becomes an unreachable alert.
	mon.apply("d2", pollResult{at: time.Now(), err: errors.New("connection refused")})
	v = mon.view(time.Now())
	if !strings.Contains(strings.Join(v.Alerts, "\n"), "node d2 unreachable") {
		t.Fatalf("disconnect not alerted: %v", v.Alerts)
	}
}

func TestWindowPruning(t *testing.T) {
	mon := newMonitor(50*time.Millisecond, time.Second, "")
	mon.addNode("d1", "http://x")
	mon.apply("d1", pollResult{at: time.Now(), trace: obs.TracePayload{Events: []obs.Event{
		{Comp: "spread", Kind: "old", T: time.Now().Add(-time.Minute), Seq: 1},
		{Comp: "spread", Kind: "fresh", T: time.Now(), Seq: 2},
	}}})
	v := mon.view(time.Now())
	if v.Nodes[0].Events != 1 {
		t.Fatalf("window kept %d events, want only the fresh one", v.Nodes[0].Events)
	}
}

func TestWireKind(t *testing.T) {
	if got := wireKind("spread_wire_sent_msgs{data}"); got != "data" {
		t.Fatalf("wireKind = %q", got)
	}
	if got := wireKind("plain"); got != "plain" {
		t.Fatalf("wireKind fallback = %q", got)
	}
}

// TestPollTruncationAndCounterReset polls a daemon with a 4-event ring:
// a ring that wrapped before the first poll is expected and raises no
// alert, a wrap between two polls raises exactly one truncation alert, and
// a counter that goes down (the daemon restarted behind the same address)
// still yields a non-negative send rate.
func TestPollTruncationAndCounterReset(t *testing.T) {
	var daemon atomic.Pointer[http.ServeMux]
	boot := func(sent int64) *obs.Scope {
		sc := obs.NewScope("d1", "test")
		sc.Rec = obs.NewRecorder("d1", 4)
		sc.Reg.Counter(obs.LabelName("spread_wire_sent_msgs", "data")).Add(sent)
		daemon.Store(obs.Mux(sc))
		return sc
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		daemon.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}
	mon := newMonitor(time.Minute, time.Second, "")
	mon.addNode("d1", srv.URL)

	record := func(sc *obs.Scope, k int) {
		for i := 0; i < k; i++ {
			sc.Record(obs.Event{Comp: "spread", Kind: "tick", T: time.Now()})
		}
	}
	truncations := func(v *FleetView) int {
		n := 0
		for _, a := range v.Alerts {
			if strings.Contains(a, "trace truncated") {
				n++
			}
		}
		return n
	}

	sc := boot(50)
	record(sc, 10)
	mon.poll(cl, "d1")
	if v := mon.view(time.Now()); len(v.Alerts) != 0 || v.Nodes[0].Events != 4 {
		t.Fatalf("first poll of a wrapped ring: events=%d alerts=%v, want 4 and none",
			v.Nodes[0].Events, v.Alerts)
	}

	record(sc, 10)
	mon.poll(cl, "d1")
	if v := mon.view(time.Now()); truncations(v) != 1 || v.Nodes[0].Truncated != 1 {
		t.Fatalf("wrap between polls: alerts=%v, want exactly one trace truncated", v.Alerts)
	}

	boot(5)
	mon.poll(cl, "d1")
	v := mon.view(time.Now())
	if !v.Nodes[0].Connected || truncations(v) != 1 {
		t.Fatalf("after restart: node=%+v alerts=%v", v.Nodes[0], v.Alerts)
	}
	// 50 before the restart plus the new incarnation's 5.
	r := v.SendRates["data"]
	if r.MsgsPerSec < 0 || r.MsgsPerSec*v.WindowSec < 54.9 || r.MsgsPerSec*v.WindowSec > 55.1 {
		t.Fatalf("rate after a counter reset = %.2f msg/s over %.2fs, want 55 msgs", r.MsgsPerSec, v.WindowSec)
	}
}
