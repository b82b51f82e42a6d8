// Package stream is the live export layer on top of the obs ring buffer
// and metrics registry: incremental /trace?since= cursor reads made
// push-shaped. It attaches an SSE endpoint (/events) to a node's debug
// mux that streams new trace events and periodic metric deltas to any
// number of subscribers.
//
// Backpressure follows the same degradation discipline as the TCP
// transport's send queues: every subscriber owns a bounded frame queue
// that drops oldest-first when the subscriber reads slower than the node
// produces, counting drops in stream_dropped_frames — a slow or dead
// subscriber can never block the daemon, only lose its own history. A
// subscriber whose trace cursor is overwritten by ring wraparound gets
// an explicit truncated frame rather than silently missing events.
package stream

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// SSE event names pushed on /events.
const (
	KindHello     = "hello"
	KindTrace     = "trace"
	KindTruncated = "truncated"
	KindMetrics   = "metrics"
)

// Hello opens every subscription: the node name and the cursor the
// stream starts from.
type Hello struct {
	Node  string `json:"node"`
	Since uint64 `json:"since"`
}

// Truncation reports a cursor gap: the ring wrapped past the
// subscriber's cursor, so events in (Since, Resumed) were lost before
// they could be streamed. Initial marks the backfill read of a fresh
// subscription (a since=0 subscriber on a long-lived daemon expects the
// ring to have wrapped; only non-initial truncations indicate the
// subscriber fell behind).
type Truncation struct {
	Node    string `json:"node"`
	Since   uint64 `json:"since"`
	Resumed uint64 `json:"resumed"`
	Initial bool   `json:"initial,omitempty"`
}

// MetricsDelta is one periodic metrics frame: what moved since the
// previous frame (the first frame of a subscription carries the full
// snapshots — DiffFrom against zero). Dropped is the total number of
// frames this subscriber has lost to queue overflow.
type MetricsDelta struct {
	Node    string       `json:"node"`
	Metrics obs.Snapshot `json:"metrics"`
	Process obs.Snapshot `json:"process"`
	Dropped uint64       `json:"dropped,omitempty"`
}

// Options tunes the stream endpoint. Zero values select defaults.
type Options struct {
	// PollInterval is the trace-ring cursor poll cadence (default 100ms).
	PollInterval time.Duration
	// MetricsInterval is the metric-delta cadence (default 1s).
	MetricsInterval time.Duration
	// QueueLimit caps each subscriber's pending frame queue; beyond it
	// the oldest frames are dropped and counted (default 256).
	QueueLimit int
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.MetricsInterval <= 0 {
		o.MetricsInterval = time.Second
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 256
	}
	return o
}

// Attach registers the /events SSE endpoint for the scope on mux (the
// same mux obs.Mux built, so one debug listener serves snapshots and the
// live stream).
//
// Query parameters: since=SEQ starts the trace cursor (default 0, a full
// backfill of the retained ring); group=G filters trace events the way
// /trace does; metrics=0 disables metric frames.
func Attach(mux *http.ServeMux, sc *obs.Scope, opt Options) {
	s := &streamer{
		sc:          sc,
		opt:         opt.withDefaults(),
		dropped:     sc.Reg.Counter("stream_dropped_frames"),
		subscribers: sc.Reg.Gauge("stream_subscribers"),
	}
	mux.HandleFunc("/events", s.serve)
}

type streamer struct {
	sc          *obs.Scope
	opt         Options
	dropped     *obs.Counter
	subscribers *obs.Gauge
}

// frame is one pending SSE message, marshaled at produce time so the
// queue holds bytes, not live references into the registry.
type frame struct {
	event string
	data  []byte
}

func (s *streamer) serve(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "stream: response writer cannot flush", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	var since uint64
	if arg := q.Get("since"); arg != "" {
		v, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = v
	}
	group := q.Get("group")
	wantMetrics := q.Get("metrics") != "0"

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := writeFrame(w, mustFrame(KindHello, Hello{Node: s.sc.Node, Since: since})); err != nil {
		return
	}
	fl.Flush()

	sub := &subscriber{limit: s.opt.QueueLimit, wake: make(chan struct{}, 1)}
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)

	// The producer polls the shared ring and registry on its own
	// goroutine and only ever touches the bounded queue — it can always
	// run at full speed no matter how slow this request's writes are.
	ctx := r.Context()
	go s.produce(ctx, sub, since, group, wantMetrics)

	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.wake:
		}
		for _, f := range sub.take() {
			if err := writeFrame(w, f); err != nil {
				return
			}
		}
		fl.Flush()
	}
}

// produce is the subscriber's private pump: cursor reads of the trace
// ring on every poll tick, registry deltas on every metrics tick.
func (s *streamer) produce(ctx context.Context, sub *subscriber, cursor uint64, group string, wantMetrics bool) {
	poll := time.NewTicker(s.opt.PollInterval)
	defer poll.Stop()
	metrics := time.NewTicker(s.opt.MetricsInterval)
	defer metrics.Stop()

	var prevNode, prevProc obs.Snapshot
	initial := true
	emitMetrics := func() {
		node := s.sc.Reg.Snapshot()
		proc := obs.Default.Snapshot()
		s.push(sub, KindMetrics, MetricsDelta{
			Node:    s.sc.Node,
			Metrics: node.DiffFrom(prevNode),
			Process: proc.DiffFrom(prevProc),
			Dropped: sub.droppedTotal(),
		})
		prevNode, prevProc = node, proc
	}
	pollTrace := func() {
		events, next, truncated := s.sc.Rec.EventsSince(cursor)
		if truncated {
			resumed := next
			if len(events) > 0 {
				resumed = events[0].Seq
			}
			s.push(sub, KindTruncated, Truncation{
				Node: s.sc.Node, Since: cursor, Resumed: resumed, Initial: initial,
			})
		}
		events = obs.FilterGroup(events, group)
		if len(events) > 0 {
			s.push(sub, KindTrace, events)
		}
		cursor = next
		initial = false
	}

	if wantMetrics {
		emitMetrics() // the full-snapshot opening frame
	}
	pollTrace()
	for {
		select {
		case <-ctx.Done():
			return
		case <-poll.C:
			pollTrace()
		case <-metrics.C:
			if wantMetrics {
				emitMetrics()
			}
		}
	}
}

func (s *streamer) push(sub *subscriber, event string, v any) {
	if n := sub.push(mustFrame(event, v)); n > 0 {
		s.dropped.Add(int64(n))
	}
}

func mustFrame(event string, v any) frame {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"marshal failure"}`)
	}
	return frame{event: event, data: data}
}

// writeFrame renders one SSE frame. Marshaled JSON never contains a bare
// newline, so a single data: line is always well-formed.
func writeFrame(w http.ResponseWriter, f frame) error {
	if _, err := w.Write([]byte("event: " + f.event + "\n")); err != nil {
		return err
	}
	if _, err := w.Write([]byte("data: ")); err != nil {
		return err
	}
	if _, err := w.Write(f.data); err != nil {
		return err
	}
	_, err := w.Write([]byte("\n\n"))
	return err
}

// subscriber is one /events connection's bounded frame queue: producer
// pushes, writer drains, overflow drops oldest-first with a count — the
// same discipline as the TCP transport send queue.
type subscriber struct {
	mu      sync.Mutex
	q       []frame
	limit   int
	dropped uint64
	wake    chan struct{}
}

// push appends one frame, evicting oldest frames beyond the limit, and
// returns how many were dropped.
func (b *subscriber) push(f frame) int {
	b.mu.Lock()
	b.q = append(b.q, f)
	dropped := 0
	for len(b.q) > b.limit {
		b.q = b.q[1:]
		dropped++
	}
	b.dropped += uint64(dropped)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	return dropped
}

// take removes every pending frame.
func (b *subscriber) take() []frame {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.q
	b.q = nil
	return q
}

func (b *subscriber) droppedTotal() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}
