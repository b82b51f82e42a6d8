package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEventsSinceCursor pins the incremental-read contract the fleet
// monitor's polls depend on: a cursor inside the retained window reads exactly
// the new events, a cursor the ring wrapped past gets an explicit
// truncated marker, and an up-to-date cursor reads nothing.
func TestEventsSinceCursor(t *testing.T) {
	r := NewRecorder("n1", 8)
	for i := 1; i <= 20; i++ {
		r.Record(Event{Comp: "test", Kind: fmt.Sprintf("ev-%d", i)})
	}
	// Retained: seqs 13..20.
	evs, next, truncated := r.EventsSince(12)
	if truncated {
		t.Fatalf("cursor 12 is the newest overwritten seq; want truncated=false, got true")
	}
	if len(evs) != 8 || evs[0].Seq != 13 || evs[7].Seq != 20 || next != 20 {
		t.Fatalf("EventsSince(12) = %d events [%d..%d] next=%d, want 8 [13..20] next=20",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq, next)
	}

	evs, next, truncated = r.EventsSince(5)
	if !truncated {
		t.Fatalf("cursor 5 was overwritten; want truncated=true")
	}
	if len(evs) != 8 || evs[0].Seq != 13 || next != 20 {
		t.Fatalf("EventsSince(5) = %d events first=%d next=%d, want 8 first=13 next=20",
			len(evs), evs[0].Seq, next)
	}

	evs, next, truncated = r.EventsSince(17)
	if truncated || len(evs) != 3 || evs[0].Seq != 18 {
		t.Fatalf("EventsSince(17) = %d events first=%d truncated=%v, want 3 first=18 false",
			len(evs), evs[0].Seq, truncated)
	}

	evs, next, truncated = r.EventsSince(20)
	if truncated || len(evs) != 0 || next != 20 {
		t.Fatalf("EventsSince(20) = %d events next=%d truncated=%v, want 0 next=20 false",
			len(evs), next, truncated)
	}

	// A reader resuming from next never re-reads or misses events.
	r.Record(Event{Comp: "test", Kind: "ev-21"})
	evs, _, truncated = r.EventsSince(next)
	if truncated || len(evs) != 1 || evs[0].Kind != "ev-21" {
		t.Fatalf("resume from %d = %d events, want exactly ev-21", next, len(evs))
	}
}

// TestTraceSinceEndpoint drives the wraparound contract through the live
// /trace?since= endpoint: a wrapped cursor must yield an explicit
// truncated marker in the payload, not silently missing events.
func TestTraceSinceEndpoint(t *testing.T) {
	sc := NewScope("n1", "test")
	sc.Rec = NewRecorder("n1", 4)
	for i := 1; i <= 10; i++ {
		sc.Record(Event{Comp: "test", Kind: fmt.Sprintf("ev-%d", i)})
	}
	srv := httptest.NewServer(Mux(sc))
	defer srv.Close()

	get := func(url string) TracePayload {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p TracePayload
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := get(srv.URL + "/trace?since=2")
	if !p.Truncated {
		t.Fatalf("cursor 2 wrapped (retained 7..10); want truncated=true, got %+v", p)
	}
	if len(p.Events) != 4 || p.Events[0].Seq != 7 || p.NextSince != 10 {
		t.Fatalf("since=2: %d events first=%d next=%d, want 4 first=7 next=10",
			len(p.Events), p.Events[0].Seq, p.NextSince)
	}

	p = get(srv.URL + "/trace?since=8")
	if p.Truncated || len(p.Events) != 2 {
		t.Fatalf("since=8: truncated=%v events=%d, want false 2", p.Truncated, len(p.Events))
	}

	// A full read (no cursor) keeps the legacy shape.
	p = get(srv.URL + "/trace")
	if p.Truncated || len(p.Events) != 4 || p.Total != 10 {
		t.Fatalf("full read: truncated=%v events=%d total=%d", p.Truncated, len(p.Events), p.Total)
	}

	resp, err := http.Get(srv.URL + "/trace?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}
}

func TestHistogramMergeAndQuantile(t *testing.T) {
	mk := func(obs ...time.Duration) HistogramSnapshot {
		reg := NewRegistry()
		h := reg.Histogram("h", []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
		for _, d := range obs {
			h.Observe(d)
		}
		return reg.Snapshot().Histograms["h"]
	}
	a := mk(500*time.Microsecond, 2*time.Millisecond)
	b := mk(5*time.Millisecond, 50*time.Millisecond, 200*time.Millisecond)
	m := MergeHistograms(a, b)
	if m.Count != 5 {
		t.Fatalf("merged count = %d, want 5", m.Count)
	}
	if m.MinMs != 0.5 || m.MaxMs != 200 {
		t.Fatalf("merged min/max = %v/%v, want 0.5/200", m.MinMs, m.MaxMs)
	}
	var sum int64
	for _, bk := range m.Buckets {
		sum += bk.Count
	}
	if sum != 5 {
		t.Fatalf("merged bucket counts sum to %d, want 5", sum)
	}

	// Quantiles interpolate within the owning bucket and clamp at the
	// recorded maximum for the overflow bucket.
	if q := m.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q0 = %v, want within first occupied bucket [0,1]ms", q)
	}
	if q := m.Quantile(1); q != 200 {
		t.Fatalf("q1 = %v, want the recorded max 200", q)
	}
	mid := m.Quantile(0.5)
	if mid <= 1 || mid > 10 {
		t.Fatalf("q0.5 = %v, want inside the (1,10]ms bucket", mid)
	}
	if e := (HistogramSnapshot{}).Quantile(0.5); e != 0 {
		t.Fatalf("empty quantile = %v, want 0", e)
	}
}

// TestQuantileWithinObserved pins the two quantile defects: an estimate
// past the recorded maximum (interpolating to the owning bucket's upper
// bound) and one from the wrong bucket (the lower bound not advancing over
// empty buckets). Every estimate lies in [MinMs, MaxMs] and in its owning
// bucket.
func TestQuantileWithinObserved(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * 1e6) }
	cases := []struct {
		name string
		obs  []float64 // milliseconds, default buckets
		q    float64
		want float64
	}{
		{"p99 stops at the maximum", []float64{7, 7, 12.73}, 0.99, 10 + 2.73*0.97},
		{"p0 is the minimum", []float64{7, 7, 12.73}, 0, 7},
		{"p100 is the maximum", []float64{7, 7, 12.73}, 1, 12.73},
		{"empty bucket is skipped", []float64{0.4, 1.5}, 0.6, 1.1},
		{"overflow spans to the maximum", []float64{1, 6000, 8000}, 0.5, 5000 + 3000*0.25},
	}
	for _, c := range cases {
		reg := NewRegistry()
		h := reg.Histogram("h", nil)
		for _, v := range c.obs {
			h.Observe(ms(v))
		}
		snap := reg.Snapshot().Histograms["h"]
		got := snap.Quantile(c.q)
		if math.Abs(got-c.want) > 1e-9 || got < snap.MinMs || got > snap.MaxMs {
			t.Errorf("%s: Quantile(%v) = %v, want %v within [%v, %v]",
				c.name, c.q, got, c.want, snap.MinMs, snap.MaxMs)
		}
	}
}

func TestSampleRuntime(t *testing.T) {
	reg := NewRegistry()
	SampleRuntime(reg)
	s := reg.Snapshot()
	if s.Gauges["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %d, want >= 1", s.Gauges["go_goroutines"])
	}
	if s.Gauges["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %d, want > 0", s.Gauges["go_heap_alloc_bytes"])
	}
	if _, ok := s.Counters["go_gc_pauses_total"]; !ok {
		t.Fatalf("go_gc_pauses_total missing: %v", s.Counters)
	}
	// Resampling must keep the GC counter monotonic, never double-add.
	before := reg.Counter("go_gc_pauses_total").Value()
	SampleRuntime(reg)
	SampleRuntime(reg)
	after := reg.Counter("go_gc_pauses_total").Value()
	if after < before {
		t.Fatalf("gc counter went backwards: %d -> %d", before, after)
	}
}

// TestMetricsScrapeSamplesRuntime pins that every /metrics scrape carries
// the runtime gauges and the GC pause counter.
func TestMetricsScrapeSamplesRuntime(t *testing.T) {
	sc := NewScope("n1", "test")
	srv := httptest.NewServer(Mux(sc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var p MetricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.Process.Gauges["go_goroutines"] < 1 {
		t.Fatalf("JSON scrape missing go_goroutines: %v", p.Process.Gauges)
	}
	if p.Process.Gauges["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("JSON scrape missing go_heap_alloc_bytes")
	}
	if _, ok := p.Process.Counters["go_gc_pauses_total"]; !ok {
		t.Fatalf("JSON scrape missing go_gc_pauses_total")
	}
}

// TestMetricsEndpointJSON serves one registry state through the debug mux
// and checks the JSON payload carries it: node name, counters and
// histograms under their "name{label}" keys.
func TestMetricsEndpointJSON(t *testing.T) {
	sc := NewScope("d01", "obstest")
	sc.Reg.Counter(LabelName("wire_msgs", "send")).Add(7)
	sc.Reg.Gauge("group_members").Set(3)
	h := sc.Reg.Histogram(LabelName("rekey_latency", "join"),
		[]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)

	srv := httptest.NewServer(Mux(sc))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics Content-Type = %q, want application/json", ct)
	}
	var p MetricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if p.Node != "d01" {
		t.Errorf("payload node = %q, want d01", p.Node)
	}
	if p.Metrics.Counters["wire_msgs{send}"] != 7 {
		t.Errorf("JSON counter = %d, want 7", p.Metrics.Counters["wire_msgs{send}"])
	}
	if p.Metrics.Gauges["group_members"] != 3 {
		t.Errorf("JSON gauge = %d, want 3", p.Metrics.Gauges["group_members"])
	}
	if p.Metrics.Histograms["rekey_latency{join}"].Count != 3 {
		t.Errorf("JSON histogram count = %d, want 3", p.Metrics.Histograms["rekey_latency{join}"].Count)
	}
}

// TestHealthzReadyzSplit covers both probe states: liveness always
// answers 200, readiness flips to 503 with a JSON reason while degraded.
func TestHealthzReadyzSplit(t *testing.T) {
	sc := NewScope("n1", "test")
	degraded := fmt.Errorf("2 peer link(s) down: [d2 d3]")
	var fail bool
	srv := httptest.NewServer(Mux(sc, WithReadiness(func() error {
		if fail {
			return degraded
		}
		return nil
	})))
	defer srv.Close()

	check := func(path string, wantStatus int, wantBody string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: non-JSON body: %v", path, err)
		}
		if got := body["status"]; got != wantBody {
			t.Fatalf("GET %s status field = %q, want %q", path, got, wantBody)
		}
		if wantStatus == http.StatusServiceUnavailable && body["reason"] != degraded.Error() {
			t.Fatalf("degraded reason = %q, want %q", body["reason"], degraded)
		}
	}

	check("/healthz", http.StatusOK, "ok")
	check("/readyz", http.StatusOK, "ready")
	fail = true
	check("/healthz", http.StatusOK, "ok") // liveness ignores degradation
	check("/readyz", http.StatusServiceUnavailable, "degraded")

	// Replies are compact (no indentation) and still decode into their
	// payload types, the degraded probe (503 with a reason, checked
	// above) included.
	sc.Record(Event{Comp: "test", Kind: "view-install", Group: "g"})
	sc.Reg.Observe(LabelName("rekey_latency", "join"), 3*time.Millisecond)
	for path, v := range map[string]any{
		"/metrics":       &MetricsPayload{},
		"/trace?since=0": &TracePayload{},
		"/readyz":        &map[string]string{},
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "\n ") {
			t.Errorf("GET %s: indented reply:\n%s", path, raw)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Errorf("GET %s: %v", path, err)
		}
	}
	fail = false
	check("/readyz", http.StatusOK, "ready")

	// Without a readiness hook the probe mirrors liveness.
	plain := httptest.NewServer(Mux(sc))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz without hook = %d, want 200", resp.StatusCode)
	}
}
