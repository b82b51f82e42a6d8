package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Event is one entry of a node's causal trace. The fields mirror the
// attribution chain of the paper's experiments: which group, which daemon
// view, which key epoch a protocol step belongs to. Two fields carry the
// causal structure across nodes: "hlc" is the hybrid-logical-clock stamp
// issued at Record time (so merged traces order by happens-before, not by
// host clocks agreeing), and "parent" — present only on receive events —
// is the (node, seq) reference of the send event whose wire message this
// event consumed, the cross-node edge of the happens-before graph.
type Event struct {
	// Seq is the per-recorder sequence number (1-based, monotonic); it
	// breaks ties when merging traces whose clocks collide.
	Seq uint64 `json:"seq"`
	// T is the wall-clock stamp applied at Record time.
	T time.Time `json:"t"`
	// HLC is the hybrid logical clock stamp applied at Record time.
	// Unlike T it is causally consistent across nodes: a receive always
	// stamps after the matching send, whatever the hosts' clocks say.
	HLC HLC `json:"hlc,omitzero"`
	// Parent references the remote send event this event is a direct
	// causal consequence of (receive events only).
	Parent *EventRef `json:"parent,omitempty"`
	// Node is the recording node ("d01", "c02#d01").
	Node string `json:"node"`
	// Comp is the recording layer: "spread", "flush", "core", "cliques",
	// "ckd", "chaos".
	Comp string `json:"comp"`
	// Kind names the step ("view-install", "flush-request", "kga-op",
	// "key-install", "first-send", ...).
	Kind string `json:"kind"`
	// Group is the process group the step concerns, when any.
	Group string `json:"group,omitempty"`
	// View is the daemon- or group-view identifier in force.
	View string `json:"view,omitempty"`
	// KeyEpoch is the group key epoch the step concerns, when any.
	KeyEpoch uint64 `json:"key_epoch,omitempty"`
	// Detail is free-form context (members, operation, state).
	Detail string `json:"detail,omitempty"`
}

// Ref returns the event's (node, seq) identity in a merged trace.
func (e Event) Ref() EventRef { return EventRef{Node: e.Node, Seq: e.Seq} }

// String renders one trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%s %-10s %-8s %-16s", e.T.Format("15:04:05.000000"), e.Node, e.Comp, e.Kind)
	if e.Group != "" {
		s += " group=" + e.Group
	}
	if e.View != "" {
		s += " view=" + e.View
	}
	if e.KeyEpoch != 0 {
		s += fmt.Sprintf(" key_epoch=%d", e.KeyEpoch)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// DefaultRingSize is the per-node trace capacity; old events are
// overwritten once the ring wraps.
const DefaultRingSize = 2048

// Recorder is a fixed-capacity ring buffer of trace events, safe for
// concurrent append. Recording is one mutexed slot write; the buffer never
// grows, so a wedged reader cannot stall a writer and a long run cannot
// exhaust memory.
type Recorder struct {
	node  string
	clock *Clock

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

// NewRecorder builds a recorder for the named node; capacity <= 0 means
// DefaultRingSize.
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Recorder{node: node, clock: NewClock(), buf: make([]Event, capacity)}
}

// Clock returns the recorder's hybrid logical clock. Nil-safe.
func (r *Recorder) Clock() *Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// Observe merges a remote HLC stamp into the recorder's clock without
// recording an event — wire receive sites call it so every later local
// stamp orders after the sender's. Nil-safe.
func (r *Recorder) Observe(h HLC) {
	if r == nil || h.IsZero() {
		return
	}
	// Merge-only: every Observe caller that records a receive event does
	// so through Record, whose clock tick orders it after the merge.
	r.clock.Merge(h)
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Node returns the recorder's node name.
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Record stamps ev with the next sequence number, the current time and
// an HLC stamp (when unset) and stores it, overwriting the oldest event
// when full. It returns the stamped event so callers can reference it —
// wire send sites put the (node, seq) and HLC on the frame so the
// receiver records the causal parent edge. Nil-safe.
func (r *Recorder) Record(ev Event) Event {
	if r == nil {
		return ev
	}
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	if ev.Node == "" {
		ev.Node = r.node
	}
	if ev.HLC.IsZero() {
		// Reuse the wall reading above instead of a second host clock
		// read; the HLC's logical counter absorbs a stale stamp.
		ev.HLC = r.clock.TickFrom(ev.T)
	}
	r.mu.Lock()
	r.next++
	ev.Seq = r.next
	r.buf[(r.next-1)%uint64(len(r.buf))] = ev
	r.mu.Unlock()
	return ev
}

// Total returns the number of events ever recorded (recorded - retained =
// overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Event, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, r.buf[s%cap64])
	}
	return out
}

// EventsSince returns the retained events with sequence numbers beyond
// the cursor, oldest first — an incremental read for live streaming. next
// is the cursor to resume from (the recorder's total at read time).
// truncated reports that events between the cursor and the oldest retained
// event were overwritten before they could be read: the ring wrapped past
// the reader, so the gap is explicit rather than silently missing.
func (r *Recorder) EventsSince(since uint64) (events []Event, next uint64, truncated bool) {
	if r == nil {
		return nil, since, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	oldest := uint64(1)
	if n > cap64 {
		oldest = n - cap64 + 1
	}
	start := since + 1
	if start < oldest {
		truncated = true
		start = oldest
	}
	if start > n {
		return nil, n, truncated
	}
	events = make([]Event, 0, n-start+1)
	for s := start; s <= n; s++ {
		events = append(events, r.buf[(s-1)%cap64])
	}
	return events, n, truncated
}

// GroupEvents returns the retained events concerning the group (see
// FilterGroup), oldest first.
func (r *Recorder) GroupEvents(group string) []Event {
	return FilterGroup(r.Events(), group)
}

// FilterGroup returns the events concerning the group, in order: the
// group's own plus those with no group (daemon view installs, spread wire
// and membership events), which are causal context for every group. An
// empty group selects everything and returns events itself.
func FilterGroup(events []Event, group string) []Event {
	if group == "" {
		return events
	}
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Group == "" || e.Group == group {
			out = append(out, e)
		}
	}
	return out
}

// Merge interleaves the traces of many nodes into one causally-ordered
// chain. Events carrying an HLC stamp order by it — so a receive always
// follows its send even when the hosts' wall clocks disagree; events
// without one (recorded before the causal layer, or hand-built) fall
// back to their wall-clock microsecond. The full comparison is a strict
// total order over every event field, so merging the same traces in any
// permutation yields the identical chain.
func Merge(traces ...[]Event) []Event {
	var out []Event
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return mergeLess(out[i], out[j])
	})
	return out
}

// mergeLess is the merge order: (HLC wall µs, HLC logical, wall-clock
// ns, node, seq), then the remaining fields as a deterministic tiebreak
// for hand-built duplicates. Events without an HLC stamp borrow their
// wall microsecond with logical 0, which keeps old and new events in
// one consistent order.
func mergeLess(a, b Event) bool {
	aw, bw := a.HLC.Wall, b.HLC.Wall
	if a.HLC.IsZero() {
		aw = a.T.UnixMicro()
	}
	if b.HLC.IsZero() {
		bw = b.T.UnixMicro()
	}
	if aw != bw {
		return aw < bw
	}
	if a.HLC.Logical != b.HLC.Logical {
		return a.HLC.Logical < b.HLC.Logical
	}
	if !a.T.Equal(b.T) {
		return a.T.Before(b.T)
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Comp != b.Comp {
		return a.Comp < b.Comp
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	if a.View != b.View {
		return a.View < b.View
	}
	if a.KeyEpoch != b.KeyEpoch {
		return a.KeyEpoch < b.KeyEpoch
	}
	return a.Detail < b.Detail
}
