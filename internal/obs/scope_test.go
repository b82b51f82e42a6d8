package obs

import "testing"

// TestTraceCapGuards pins the ring-capacity fallback: zero and negative
// capacities never panic and fall back to DefaultRingSize.
func TestTraceCapGuards(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		want int
	}{
		{"explicit", 16, 16},
		{"zero falls back", 0, DefaultRingSize},
		{"negative falls back", -5, DefaultRingSize},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRecorder("n1", c.cap)
			if got := r.Cap(); got != c.want {
				t.Errorf("Cap() = %d, want %d", got, c.want)
			}
			r.Record(Event{Kind: "k"}) // capacity must be usable, not just reported
			if r.Total() != 1 {
				t.Errorf("Total = %d after one record", r.Total())
			}
		})
	}
}

// TestNewScopeDefaults checks NewScope's fixed shape: a DefaultRingSize
// trace ring, and histograms created with nil bounds (the rekey-latency
// and flush-round ones) use DefaultLatencyBuckets.
func TestNewScopeDefaults(t *testing.T) {
	sc := NewScope("n1", "obstest")
	if sc.Rec.Cap() != DefaultRingSize {
		t.Errorf("trace cap = %d, want %d", sc.Rec.Cap(), DefaultRingSize)
	}
	h := sc.Reg.Histogram("rekey_latency{join}", nil).snapshot()
	if len(h.Buckets) != len(DefaultLatencyBuckets)+1 {
		t.Fatalf("nil bounds: %d buckets, want %d", len(h.Buckets), len(DefaultLatencyBuckets)+1)
	}
	for i, b := range DefaultLatencyBuckets {
		if h.Buckets[i].LE != b.String() {
			t.Errorf("bucket %d le = %q, want %q", i, h.Buckets[i].LE, b)
		}
	}
}
