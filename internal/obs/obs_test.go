package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the bucket boundary semantics: an observation
// equal to a bound lands in that bound's bucket, one past it lands in the
// next, and everything beyond the last bound lands in overflow.
func TestHistogramBuckets(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := newHistogram(bounds)

	h.Observe(time.Millisecond)       // == bound 0 -> bucket 0
	h.Observe(time.Millisecond + 1)   // just past -> bucket 1
	h.Observe(10 * time.Millisecond)  // == bound 1 -> bucket 1
	h.Observe(100 * time.Millisecond) // == bound 2 -> bucket 2
	h.Observe(101 * time.Millisecond) // past the last bound -> overflow
	h.Observe(time.Hour)              // overflow
	h.Observe(0)                      // below everything -> bucket 0

	s := h.snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	wantCounts := []int64{2, 2, 1, 2}
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d (%s): count = %d, want %d", i, s.Buckets[i].LE, s.Buckets[i].Count, want)
		}
	}
	if s.Buckets[len(s.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket LE = %q, want +Inf", s.Buckets[len(s.Buckets)-1].LE)
	}
	if s.MinMs != 0 {
		t.Errorf("min = %v ms, want 0", s.MinMs)
	}
	if s.MaxMs != float64(time.Hour)/1e6 {
		t.Errorf("max = %v ms, want %v", s.MaxMs, float64(time.Hour)/1e6)
	}
}

// TestRingWraparound checks the recorder keeps exactly the newest events
// once full, oldest first, with monotonic sequence numbers.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder("n1", 4)
	for i := 1; i <= 10; i++ {
		r.Record(Event{Kind: fmt.Sprintf("e%02d", i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantKind := fmt.Sprintf("e%02d", 7+i)
		if e.Kind != wantKind {
			t.Errorf("event %d: kind = %q, want %q", i, e.Kind, wantKind)
		}
		if e.Seq != uint64(7+i) {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, 7+i)
		}
		if e.Node != "n1" {
			t.Errorf("event %d: node = %q, want n1", i, e.Node)
		}
	}
}

// TestRingConcurrentAppend hammers one recorder from many goroutines; run
// under -race it proves Record/Events/Total are safe, and the final Total
// must equal the number of appends.
func TestRingConcurrentAppend(t *testing.T) {
	const writers, perWriter = 8, 500
	r := NewRecorder("n1", 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: "k", Detail: fmt.Sprintf("w%d-%d", w, i)})
				if i%100 == 0 {
					_ = r.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained events not contiguous: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestRegistrySnapshotDeterminism checks get-or-create identity and that
// the same registry state always marshals to identical bytes.
func TestRegistrySnapshotDeterminism(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("Counter(a) returned two instances")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Fatal("Gauge(g) returned two instances")
	}
	if reg.Histogram("h", nil) != reg.Histogram("h", DefaultLatencyBuckets) {
		t.Fatal("Histogram(h) returned two instances")
	}
	reg.Counter("a").Add(3)
	reg.Counter("b").Inc()
	reg.Gauge("g").Set(-7)
	reg.Observe("h", 3*time.Millisecond)
	reg.Observe("h", 30*time.Millisecond)

	marshal := func() []byte {
		b, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := marshal()
	for i := 0; i < 5; i++ {
		if next := marshal(); !bytes.Equal(first, next) {
			t.Fatalf("snapshot bytes changed with no updates:\n%s\nvs\n%s", first, next)
		}
	}
	s := reg.Snapshot()
	if s.Counters["a"] != 3 || s.Counters["b"] != 1 || s.Gauges["g"] != -7 {
		t.Errorf("snapshot values wrong: %+v", s)
	}
	if s.Histograms["h"].Count != 2 {
		t.Errorf("histogram count = %d, want 2", s.Histograms["h"].Count)
	}
}

// TestMergeOrdering checks the cross-node merge: time-ordered, with
// deterministic (node, seq) tie-breaks for equal stamps.
func TestMergeOrdering(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := []Event{
		{Seq: 1, T: t0, Node: "a", Kind: "a1"},
		{Seq: 2, T: t0.Add(2 * time.Second), Node: "a", Kind: "a2"},
	}
	b := []Event{
		{Seq: 1, T: t0, Node: "b", Kind: "b1"},
		{Seq: 2, T: t0.Add(time.Second), Node: "b", Kind: "b2"},
	}
	got := Merge(a, b)
	want := []string{"a1", "b1", "b2", "a2"}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Errorf("merge[%d] = %s, want %s (full: %v)", i, got[i].Kind, k, got)
		}
	}
}

// TestParseLogConfig covers the SGC_LOG grammar: global level, per-component
// overrides, and tolerance of junk.
func TestParseLogConfig(t *testing.T) {
	cases := []struct {
		spec string
		comp string
		want Level
	}{
		{"", "spread", LevelOff},
		{"info", "spread", LevelInfo},
		{"warn,flush=trace", "flush", LevelTrace},
		{"warn,flush=trace", "core", LevelWarn},
		{"spread=debug", "spread", LevelDebug},
		{"spread=debug", "flush", LevelOff},
		{"bogus,core=nonsense", "core", LevelOff},
		{" debug , spread = error ", "spread", LevelError},
		{" debug , spread = error ", "ckd", LevelDebug},
	}
	for _, c := range cases {
		cfg := parseLogConfig(c.spec)
		if got := cfg.levelFor(c.comp); got != c.want {
			t.Errorf("parseLogConfig(%q).levelFor(%q) = %v, want %v", c.spec, c.comp, got, c.want)
		}
	}
}

// TestLoggerLevels checks that disabled levels emit nothing and enabled
// levels emit tagged lines.
func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	prev := SetLogOutput(&buf)
	defer SetLogOutput(prev)

	lg := L("obstest")
	old := lg.SetLevel(LevelInfo)
	defer lg.SetLevel(old)

	lg.Debugf("hidden %d", 1)
	if buf.Len() != 0 {
		t.Fatalf("debug emitted at info level: %q", buf.String())
	}
	lg.Warnf("shown %d", 2)
	line := buf.String()
	for _, want := range []string{"SGC", "obstest", "warn", "shown 2"} {
		if !bytes.Contains([]byte(line), []byte(want)) {
			t.Errorf("log line missing %q: %q", want, line)
		}
	}
}

// TestLabelName checks the interning helper's rendering.
func TestLabelName(t *testing.T) {
	if got := LabelName("rekey_latency", "join"); got != "rekey_latency{join}" {
		t.Errorf("LabelName = %q", got)
	}
	// Interned: same inputs give the identical string (and exercise the
	// cache path).
	if LabelName("x", "y") != LabelName("x", "y") {
		t.Error("LabelName not stable")
	}
}

// TestFilterGroup pins the one group filter: a group's own events and the
// group-less ones (daemon view installs, spread wire events — causal
// context for every group) stay in order, other groups' go, and the
// empty group selects everything without copying.
func TestFilterGroup(t *testing.T) {
	evs := []Event{
		{Seq: 1, Comp: "spread", Kind: "view-install"},
		{Seq: 2, Comp: "flush", Kind: "flush-request", Group: "g"},
		{Seq: 3, Comp: "flush", Kind: "flush-request", Group: "other"},
		{Seq: 4, Comp: "core", Kind: "key-install", Group: "g"},
	}
	got := FilterGroup(evs, "g")
	if len(got) != 3 || got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 4 {
		t.Errorf("FilterGroup(g) = %+v", got)
	}
	if got := FilterGroup(evs, "none"); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("FilterGroup(none) = %+v", got)
	}
	if got := FilterGroup(evs, ""); len(got) != 4 || &got[0] != &evs[0] {
		t.Errorf("FilterGroup(\"\") did not return its input: %+v", got)
	}

	// Recorder.GroupEvents is the same filter over the ring.
	r := NewRecorder("n", 8)
	for _, e := range evs {
		r.Record(Event{Comp: e.Comp, Kind: e.Kind, Group: e.Group})
	}
	if got := r.GroupEvents("g"); len(got) != 3 || got[2].Kind != "key-install" {
		t.Errorf("GroupEvents(g) = %+v", got)
	}
}

// TestParseEndpoints covers the name=URL argument grammar shared by
// sgctrace collect and sgcmon.
func TestParseEndpoints(t *testing.T) {
	got, err := ParseEndpoints([]string{"d1=http://x:1/", "d2=http://y:2"})
	if err != nil || len(got) != 2 || got[0] != (Endpoint{"d1", "http://x:1"}) || got[1] != (Endpoint{"d2", "http://y:2"}) {
		t.Errorf("ParseEndpoints = %+v, %v", got, err)
	}
	for _, bad := range [][]string{nil, {"http://x"}, {"=http://x"}, {"d1="}} {
		if _, err := ParseEndpoints(bad); err == nil {
			t.Errorf("ParseEndpoints(%q) accepted", bad)
		}
	}
}
