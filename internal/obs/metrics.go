package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets covers the rekey/flush latency range of the
// paper's experiments: sub-millisecond in-process rounds up to the
// multi-second convergence of large cascades.
var DefaultLatencyBuckets = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Bucket i counts
// observations <= bounds[i]; one overflow bucket counts the rest. All
// updates are single atomic adds.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max    atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(int64(^uint64(0) >> 1))
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	// Linear scan: bucket counts are small and the slice is cache-hot.
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	ns := int64(d)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below LE ("+Inf" for the overflow bucket).
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	MeanMs  float64  `json:"mean_ms"`
	MinMs   float64  `json:"min_ms"`
	MaxMs   float64  `json:"max_ms"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.sum.Load()) / float64(s.Count) / 1e6
		s.MinMs = float64(h.min.Load()) / 1e6
		s.MaxMs = float64(h.max.Load()) / 1e6
	}
	for i := range h.counts {
		le := "+Inf"
		if i < len(h.bounds) {
			le = h.bounds[i].String()
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: h.counts[i].Load()})
	}
	return s
}

// Snapshot is a point-in-time copy of a whole registry, shaped for JSON.
// Map keys marshal in sorted order, so the same state always renders the
// same bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry is a concurrent get-or-create directory of named instruments.
// Lookup takes the registry lock; hot paths should cache the returned
// instrument pointer, after which updates are lock-free.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (nil bounds = DefaultLatencyBuckets). Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Observe records one duration in the named histogram with default
// buckets — convenience for call sites without a cached pointer.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Histogram(name, nil).Observe(d)
}

// Snapshot copies every instrument's current value. The result is
// deterministic for a given state (sorted keys, fixed bucket order).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(ctrs) > 0 {
		s.Counters = make(map[string]int64, len(ctrs))
		for k, v := range ctrs {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.snapshot()
		}
	}
	return s
}
