package analyze

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Anomaly kinds.
const (
	// AnomalyWedgedFlush: a flush round started but its view never
	// installed, the attempt was never superseded, and the trace ran on
	// past the stall threshold — the flush protocol is wedged.
	AnomalyWedgedFlush = "wedged-flush"
	// AnomalyNoKeyInstall: a view installed (flush completed) but the
	// rekey never terminated with a key install — announcement
	// collection or operation planning is stuck.
	AnomalyNoKeyInstall = "no-key-install"
	// AnomalyKGAStall: the key agreement state machine entered an
	// operation and stopped transitioning past the stall threshold.
	AnomalyKGAStall = "kga-stall"
	// AnomalyEpochDivergence: nodes sharing the same installed group
	// view report different key epochs — their keys cannot agree.
	AnomalyEpochDivergence = "epoch-divergence"
)

// Anomaly is one detected irregularity with its evidence.
type Anomaly struct {
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"`
	Group  string `json:"group"`
	View   string `json:"view,omitempty"`
	Detail string `json:"detail"`
}

func (a Anomaly) String() string {
	s := "anomaly " + a.Kind + " group=" + a.Group
	if a.Node != "" {
		s += " node=" + a.Node
	}
	if a.View != "" {
		s += " view=" + a.View
	}
	return s + ": " + a.Detail
}

// Options tunes the analysis.
type Options struct {
	// StallThreshold is how long an unterminated rekey attempt must have
	// been idle (relative to the end of the trace) before it is flagged
	// as wedged or stalled. <= 0 uses DefaultStallThreshold.
	StallThreshold time.Duration
	// Group, when non-empty, restricts the analysis to one group.
	Group string
}

// DefaultStallThreshold is the idle time after which an unterminated
// attempt counts as stuck. The stack's flush and agreement rounds complete
// in milliseconds; two seconds of silence is pathological on any testbed.
const DefaultStallThreshold = 2 * time.Second

func (o Options) withDefaults() Options {
	if o.StallThreshold <= 0 {
		o.StallThreshold = DefaultStallThreshold
	}
	return o
}

// DetectAnomalies scans a merged causal trace for wedged flush rounds,
// unterminated rekeys, stalled key agreement machines, and key-epoch
// divergence between view peers.
func DetectAnomalies(events []obs.Event, opt Options) []Anomaly {
	return detectAnomalies(correlate(obs.FilterGroup(events, opt.Group)), opt)
}

func detectAnomalies(c *correlation, opt Options) []Anomaly {
	opt = opt.withDefaults()
	var out []Anomaly

	for _, n := range c.incomplete {
		if n.Superseded {
			continue // interrupted by a cascade: the next view owns it
		}
		last := n.Start
		for _, t := range []time.Time{n.ViewInstall, n.Plan, n.LastKGA} {
			if t.After(last) {
				last = t
			}
		}
		if last.IsZero() || c.traceEnd.Sub(last) < opt.StallThreshold {
			continue // the trace ends too soon after to call it stuck
		}
		idle := c.traceEnd.Sub(last).Round(time.Millisecond)
		switch {
		case !n.Plan.IsZero() || !n.LastKGA.IsZero():
			detail := fmt.Sprintf("key agreement idle %v after %d round(s)", idle, n.KGARounds)
			if n.lastState != "" {
				detail += " (last state " + n.lastState + ")"
			}
			out = append(out, Anomaly{Kind: AnomalyKGAStall, Node: n.Node,
				Group: n.Group, View: n.View, Detail: detail})
		case !n.ViewInstall.IsZero():
			out = append(out, Anomaly{Kind: AnomalyNoKeyInstall, Node: n.Node,
				Group: n.Group, View: n.View,
				Detail: fmt.Sprintf("view installed but no key install within %v", idle)})
		default:
			out = append(out, Anomaly{Kind: AnomalyWedgedFlush, Node: n.Node,
				Group: n.Group, View: n.View,
				Detail: fmt.Sprintf("flush round pending %v with no view install", idle)})
		}
	}

	// Epoch divergence: nodes whose final installed view agrees must
	// agree on their final key epoch.
	groups := make([]string, 0, len(c.lastView))
	for g := range c.lastView {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		byView := make(map[string][]string)
		for node, view := range c.lastView[g] {
			byView[view] = append(byView[view], node)
		}
		views := make([]string, 0, len(byView))
		for v := range byView {
			views = append(views, v)
		}
		sort.Strings(views)
		for _, view := range views {
			nodes := byView[view]
			if len(nodes) < 2 {
				continue
			}
			sort.Strings(nodes)
			epochs := make(map[uint64][]string)
			for _, node := range nodes {
				epochs[c.lastEpoch[g][node]] = append(epochs[c.lastEpoch[g][node]], node)
			}
			if len(epochs) < 2 {
				continue
			}
			var parts []string
			eks := make([]uint64, 0, len(epochs))
			for e := range epochs {
				eks = append(eks, e)
			}
			sort.Slice(eks, func(i, j int) bool { return eks[i] < eks[j] })
			for _, e := range eks {
				parts = append(parts, fmt.Sprintf("epoch %d: %v", e, epochs[e]))
			}
			out = append(out, Anomaly{Kind: AnomalyEpochDivergence, Group: g, View: view,
				Detail: fmt.Sprintf("view peers disagree on key epoch (%s)", strings.Join(parts, "; "))})
		}
	}
	return out
}
