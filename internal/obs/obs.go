// Package obs is the observability layer of the reproduction: a
// structured, levelled logger, a ring-buffered causal trace recorder, and
// a metrics registry of atomic counters, gauges and fixed-bucket latency
// histograms. It is stdlib-only and imported by every layer of the stack
// (spread daemon, flush, secure core, key agreement, cipher suites), which
// is what lets a single rekey be attributed phase by phase:
//
//	VS membership event -> flush round -> KGA state machine -> key install
//	-> first encrypted send
//
// Each component records spans into its node's Recorder carrying the
// group, daemon view id and key epoch, so traces from many nodes merge
// into one time-ordered causal chain (the chaos harness dumps exactly
// that on an invariant violation). Metrics aggregate the same hot paths —
// rekey latency by membership-event type, flush-round duration, wire
// traffic by message kind, Seal/Open throughput — and are served as JSON
// by the live introspection endpoints (cmd/spreadd -debug-addr).
//
// Everything here is designed for the hot path: counters and histogram
// buckets are single atomic adds, the recorder takes one short mutexed
// append, and disabled log levels cost one atomic load.
package obs

import "sync"

// Default is the process-global registry. Process-wide instruments that
// have no natural per-node owner (the crypt Seal/Open throughput counters)
// live here; per-daemon and per-client instruments live in their Scope's
// registry.
var Default = NewRegistry()

// Scope bundles the observability handles of one node (a daemon or a
// secure client): its trace recorder, metrics registry and logger. Scopes
// of different nodes may share a Registry (the chaos harness aggregates
// every client into one) while keeping per-node Recorders for the merged
// causal trace.
type Scope struct {
	// Node is the node name events are stamped with ("d01", "c02#d01").
	Node string
	Rec  *Recorder
	Reg  *Registry
	Log  *Logger
}

// NewScope builds a scope with a fresh recorder and registry for the named
// node, logging as the given component.
func NewScope(node, component string) *Scope {
	return &Scope{
		Node: node,
		Rec:  NewRecorder(node, 0),
		Reg:  NewRegistry(),
		Log:  L(component),
	}
}

// Record stamps and records ev on the scope's recorder, returning the
// stamped event (with seq and HLC assigned) so wire send sites can put
// its reference on the frame; nil-safe so call sites need no guards.
func (s *Scope) Record(ev Event) Event {
	if s == nil || s.Rec == nil {
		return ev
	}
	ev.Node = s.Node
	return s.Rec.Record(ev)
}

// Observe merges a remote HLC stamp into the scope's clock; nil-safe.
func (s *Scope) Observe(h HLC) {
	if s == nil || s.Rec == nil {
		return
	}
	s.Rec.Observe(h)
}

var (
	labelMu    sync.Mutex
	labelCache = map[string]string{}
)

// LabelName composes a metric name with one label value, "name{label}".
// Results are interned so hot paths composing the same pair repeatedly do
// not allocate.
func LabelName(name, label string) string {
	key := name + "\x00" + label
	labelMu.Lock()
	s, ok := labelCache[key]
	if !ok {
		s = name + "{" + label + "}"
		labelCache[key] = s
	}
	labelMu.Unlock()
	return s
}
