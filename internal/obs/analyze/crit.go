package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/causal"
)

// CritStep is one event on a rekey's critical path. GapMs is the latency
// attributed to the step: the time elapsed since the previous step on the
// path. For a cross-node step the gap includes the message's network
// transit, charged to the receiving node.
type CritStep struct {
	Node   string    `json:"node"`
	Comp   string    `json:"comp"`
	Kind   string    `json:"kind"`
	View   string    `json:"view,omitempty"`
	Detail string    `json:"detail,omitempty"`
	T      time.Time `json:"t"`
	GapMs  float64   `json:"gap_ms"`
	Phase  string    `json:"phase"`
}

// CritPath is the happens-before chain that bounded one rekey's latency:
// the backward walk from the terminal event (the first encrypted send,
// else the last key install) through each event's latest dependency. Its
// total is the lower bound no scheduling change can beat without breaking
// a causal edge; PhaseMs and NodeMs attribute it.
type CritPath struct {
	Group    string  `json:"group"`
	View     string  `json:"view,omitempty"`
	Class    string  `json:"class,omitempty"`
	Proto    string  `json:"proto,omitempty"`
	KeyEpoch uint64  `json:"key_epoch,omitempty"`
	End      string  `json:"end"` // terminal event kind
	TotalMs  float64 `json:"total_ms"`
	// Connected reports that every consecutive step pair is ordered by
	// happens-before (it can only be false if the trace ring evicted
	// part of the chain).
	Connected bool               `json:"connected"`
	PhaseMs   map[string]float64 `json:"phase_ms"`
	NodeMs    map[string]float64 `json:"node_ms"`
	Steps     []CritStep         `json:"steps"`
}

// CriticalPaths extracts the critical path of every completed rekey in
// the trace, in rekey order. Traces recorded before causal stamping
// yield paths with Connected=false and only node-order hops.
func CriticalPaths(events []obs.Event) []*CritPath {
	merged := obs.Merge(events)
	graphs := make(map[string]*causal.Graph)
	var out []*CritPath
	for _, r := range Correlate(merged) {
		if !r.Complete {
			continue
		}
		g := graphs[r.Group]
		if g == nil {
			// The group's own events plus the group-less transport layer,
			// which carries the flush round.
			g = causal.Build(obs.FilterGroup(merged, r.Group))
			graphs[r.Group] = g
		}
		if p := criticalPath(g, r); p != nil {
			out = append(out, p)
		}
	}
	return out
}

func criticalPath(g *causal.Graph, r *Rekey) *CritPath {
	// Terminal: the latest-keying node bounds the group; prefer its
	// first encrypted send (the paper's user-visible end of a rekey).
	var term *NodeRekey
	for _, n := range r.Nodes {
		if !n.Keyed() {
			continue
		}
		if term == nil || n.KeyInstall.After(term.KeyInstall) {
			term = n
		}
	}
	if term == nil {
		return nil
	}
	endKind := "key-install"
	if !term.FirstSend.IsZero() {
		endKind = "first-send"
	}
	var end obs.Event
	found := false
	for _, e := range g.Events() {
		if e.Node == term.Node && e.Comp == "core" && e.Kind == endKind &&
			e.Group == r.Group && e.KeyEpoch == term.KeyEpoch {
			end = e
			found = true
			break
		}
	}
	if !found {
		return nil
	}

	start := r.startT
	stop := func(e obs.Event) bool {
		if e.Comp == "flush" && e.Kind == "flush-request" && e.View == r.View && r.View != "" {
			return true
		}
		if e.Comp == "core" && e.Kind == "refresh-start" && r.View == "" {
			return true
		}
		// Never walk past the rekey's start into earlier history.
		return !start.IsZero() && e.T.Before(start)
	}
	chain := g.CriticalPath(end.Ref(), stop)
	if len(chain) == 0 {
		return nil
	}

	p := &CritPath{
		Group: r.Group, View: r.View, Class: r.Class, Proto: r.Proto,
		KeyEpoch: r.KeyEpoch, End: endKind, Connected: true,
		PhaseMs: make(map[string]float64),
		NodeMs:  make(map[string]float64),
	}
	phase := "flush"
	if r.View == "" {
		phase = "kga" // refresh: no flush round, no alignment
	}
	for i, e := range chain {
		st := CritStep{Node: e.Node, Comp: e.Comp, Kind: e.Kind,
			View: e.View, Detail: e.Detail, T: e.T}
		if i > 0 {
			st.GapMs = ms(e.T.Sub(chain[i-1].T))
			if !g.HappensBefore(chain[i-1].Ref(), e.Ref()) {
				p.Connected = false
			}
		}
		st.Phase, phase = critPhase(e, phase)
		p.Steps = append(p.Steps, st)
		p.TotalMs += st.GapMs
		p.PhaseMs[st.Phase] += st.GapMs
		p.NodeMs[e.Node] += st.GapMs
	}
	return p
}

// critPhase buckets a path event into the rekey phase decomposition
// (Phases). The first return is the phase the step's gap belongs to; the
// second is the state for subsequent steps. Milestones close their own
// phase: the gap ending at vs-view-install is flush time, the gap ending
// at key-install is key derivation and installation.
func critPhase(e obs.Event, cur string) (step, next string) {
	switch {
	case e.Comp == "flush" && e.Kind == "vs-view-install":
		return "flush", "align"
	case e.Comp == "core" && (e.Kind == "plan" || e.Kind == "refresh-start"):
		return "align", "kga"
	case e.Comp == "core" && e.Kind == "key-install":
		return "install", "first-send"
	case e.Comp == "core" && e.Kind == "first-send":
		return "first-send", "first-send"
	case strings.HasPrefix(e.Kind, "kga-"):
		return "kga", "kga"
	case e.Comp != "core" && e.Comp != "flush" && e.Comp != "spread":
		// Protocol-engine wire events (cliques, ckd) are KGA rounds.
		return "kga", "kga"
	}
	return cur, cur
}

// FormatCritPath renders a critical path as the sgctrace crit text
// report.
func FormatCritPath(w io.Writer, p *CritPath) {
	fmt.Fprintf(w, "rekey group=%s", p.Group)
	if p.View != "" {
		fmt.Fprintf(w, " view=%s", p.View)
	}
	if p.Class != "" {
		fmt.Fprintf(w, " class=%s", p.Class)
	}
	if p.Proto != "" {
		fmt.Fprintf(w, " proto=%s", p.Proto)
	}
	fmt.Fprintf(w, " epoch=%d\n", p.KeyEpoch)
	fmt.Fprintf(w, "  critical path to %s: %.2fms over %d steps (connected=%v)\n",
		p.End, p.TotalMs, len(p.Steps), p.Connected)
	fmt.Fprintf(w, "  by phase:")
	for _, ph := range []string{"flush", "align", "kga", "install", "first-send"} {
		if v, ok := p.PhaseMs[ph]; ok {
			fmt.Fprintf(w, " %s=%.2fms", ph, v)
		}
	}
	fmt.Fprintf(w, "\n  by node:")
	nodes := make([]string, 0, len(p.NodeMs))
	for n := range p.NodeMs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(w, " %s=%.2fms", n, p.NodeMs[n])
	}
	io.WriteString(w, "\n")
	for _, st := range p.Steps {
		fmt.Fprintf(w, "    %-12s +%8.2fms  %s %s/%s", st.Phase, st.GapMs, st.Node, st.Comp, st.Kind)
		if st.Detail != "" {
			fmt.Fprintf(w, " (%s)", st.Detail)
		}
		io.WriteString(w, "\n")
	}
}
