// Package analyze is the consumer of the observability layer's raw
// signals: it turns merged causal traces (obs.Merge output, a chaos run's
// Result, or JSON scraped from live daemons) into the paper's experiment
// data — per-rekey phase decompositions, cross-node correlation, anomaly
// detection, and per-class/per-group-size latency summaries (the shape of
// Figures 4-8 and Tables 2-4).
//
// The correlation model follows the causal chain every layer records:
//
//	membership-forming -> flush-request -> vs-view-install -> announce
//	-> plan -> kga rounds -> key-install -> first-send
//
// A rekey is identified across nodes by (group, view id) for view-driven
// membership events and by (group, key epoch) for controller refreshes,
// which carry no view change.
package analyze

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Phases is one rekey's latency decomposition in milliseconds. A zero
// value means the phase was not observed (its bounding events are missing
// from the trace), not that it took no time.
type Phases struct {
	// FlushMs is the flush round: flush-request -> vs-view-install.
	FlushMs float64 `json:"flush_ms"`
	// AlignMs is the announcement/state-alignment round:
	// vs-view-install -> plan.
	AlignMs float64 `json:"align_ms"`
	// KGAMs is the key-agreement state-machine rounds: plan (or
	// refresh-start) -> last KGA transition.
	KGAMs float64 `json:"kga_ms"`
	// InstallMs is key derivation and installation: last KGA transition
	// -> key-install.
	InstallMs float64 `json:"install_ms"`
	// FirstSendMs is key-install -> first encrypted send under the key.
	FirstSendMs float64 `json:"first_send_ms"`
	// TotalMs is start (flush-request or refresh-start) -> key-install.
	TotalMs float64 `json:"total_ms"`
}

// NodeRekey is one node's record of one rekey: its event timestamps and
// the phase durations derived from them.
type NodeRekey struct {
	Node  string `json:"node"`
	Group string `json:"group"`
	// View is the group view id driving the rekey ("" for a pure
	// refresh).
	View  string `json:"view,omitempty"`
	Class string `json:"class,omitempty"`
	// Proto is the key agreement engine observed ("cliques", "ckd").
	Proto    string `json:"proto,omitempty"`
	KeyEpoch uint64 `json:"key_epoch,omitempty"`
	// KGARounds counts the engine's state-machine transitions.
	KGARounds int `json:"kga_rounds"`
	// Superseded marks an attempt interrupted by a cascaded view before
	// it could key — expected under churn, not an anomaly by itself.
	Superseded bool `json:"superseded,omitempty"`
	// Refresh marks a controller-initiated refresh (no view change).
	Refresh bool `json:"refresh,omitempty"`

	Start       time.Time `json:"start,omitempty"`
	ViewInstall time.Time `json:"view_install,omitempty"`
	Plan        time.Time `json:"plan,omitempty"`
	LastKGA     time.Time `json:"last_kga,omitempty"`
	KeyInstall  time.Time `json:"key_install,omitempty"`
	FirstSend   time.Time `json:"first_send,omitempty"`

	// Members is the rekeyed membership (from the key-install event).
	Members []string `json:"members,omitempty"`

	Phases Phases `json:"phases"`

	lastState string // most recent kga-state detail, for anomaly reports
}

// Keyed reports whether the attempt reached key installation.
func (n *NodeRekey) Keyed() bool { return !n.KeyInstall.IsZero() }

// FullyPhased reports whether every phase boundary of the causal chain was
// observed: flush round, plan, key install, and a first encrypted send.
func (n *NodeRekey) FullyPhased() bool {
	return !n.Start.IsZero() && !n.ViewInstall.IsZero() && !n.Plan.IsZero() &&
		!n.KeyInstall.IsZero() && !n.FirstSend.IsZero()
}

// Rekey is one group rekey correlated across every node that recorded it.
type Rekey struct {
	Group string `json:"group"`
	View  string `json:"view,omitempty"`
	Class string `json:"class,omitempty"`
	Proto string `json:"proto,omitempty"`
	// KeyEpoch is the installed epoch (the highest reported, should all
	// nodes agree; divergence is surfaced by the anomaly detector).
	KeyEpoch uint64 `json:"key_epoch,omitempty"`
	// Size is the post-rekey group size.
	Size int `json:"size,omitempty"`
	// Complete reports that at least one node keyed and every
	// non-superseded participant reached key-install.
	Complete bool `json:"complete"`
	// GroupTotalMs spans the earliest node start to the latest node
	// key-install: the cluster-wide cost of the membership event.
	GroupTotalMs float64 `json:"group_total_ms"`
	// Phases holds the per-phase maximum across nodes (the critical
	// path contribution of each phase).
	Phases Phases       `json:"phases"`
	Nodes  []*NodeRekey `json:"nodes"`

	startT time.Time // for ordering
}

// FullyPhased reports whether some node observed every phase boundary.
func (r *Rekey) FullyPhased() bool {
	for _, n := range r.Nodes {
		if n.FullyPhased() {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// derivePhases fills in the duration decomposition from the recorded
// timestamps. kga rounds are anchored at plan for view-driven rekeys and
// at the refresh-start for refreshes.
func (n *NodeRekey) derivePhases() {
	if !n.Start.IsZero() && !n.ViewInstall.IsZero() {
		n.Phases.FlushMs = ms(n.ViewInstall.Sub(n.Start))
	}
	if !n.ViewInstall.IsZero() && !n.Plan.IsZero() {
		n.Phases.AlignMs = ms(n.Plan.Sub(n.ViewInstall))
	}
	anchor := n.Plan
	if anchor.IsZero() {
		anchor = n.Start // refresh path: no plan event
	}
	// Engine reset transitions fire between view install and plan; only
	// KGA activity after the anchor counts as agreement rounds.
	if !anchor.IsZero() && n.LastKGA.After(anchor) {
		n.Phases.KGAMs = ms(n.LastKGA.Sub(anchor))
	}
	if !n.KeyInstall.IsZero() {
		from := anchor
		if n.LastKGA.After(anchor) {
			from = n.LastKGA
		}
		if !from.IsZero() && !n.KeyInstall.Before(from) {
			n.Phases.InstallMs = ms(n.KeyInstall.Sub(from))
		}
		if !n.Start.IsZero() {
			n.Phases.TotalMs = ms(n.KeyInstall.Sub(n.Start))
		}
	}
	if !n.FirstSend.IsZero() && !n.KeyInstall.IsZero() {
		n.Phases.FirstSendMs = ms(n.FirstSend.Sub(n.KeyInstall))
	}
}

// correlation is the full single-pass scan result: correlated rekeys plus
// the per-node attempts that never terminated (anomaly detector input).
type correlation struct {
	rekeys     []*Rekey
	incomplete []*NodeRekey
	// lastView / lastEpoch record each node's final installed group view
	// and key epoch per group, for the divergence check.
	lastView  map[string]map[string]string // group -> node -> view id
	lastEpoch map[string]map[string]uint64 // group -> node -> epoch
	traceEnd  time.Time
}

// Correlate merges and scans a causal trace, grouping every node's rekey
// attempts into cross-node Rekey records ordered by start time.
func Correlate(events []obs.Event) []*Rekey {
	return correlate(events).rekeys
}

func correlate(events []obs.Event) *correlation {
	events = obs.Merge(events)
	c := &correlation{
		lastView:  make(map[string]map[string]string),
		lastEpoch: make(map[string]map[string]uint64),
	}

	type nodeGroup struct{ node, group string }
	open := make(map[nodeGroup]*NodeRekey)
	var done []*NodeRekey
	// byEpoch locates the completed attempt a first-send event closes.
	type epochKey struct {
		node, group string
		epoch       uint64
	}
	byEpoch := make(map[epochKey]*NodeRekey)

	supersede := func(k nodeGroup) {
		if cur := open[k]; cur != nil {
			cur.Superseded = true
			cur.derivePhases()
			c.incomplete = append(c.incomplete, cur)
			delete(open, k)
		}
	}

	for i := range events {
		e := &events[i]
		if e.T.After(c.traceEnd) {
			c.traceEnd = e.T
		}
		if e.Group == "" {
			continue
		}
		k := nodeGroup{e.Node, e.Group}
		switch {
		case e.Comp == "flush" && e.Kind == "flush-request":
			supersede(k)
			open[k] = &NodeRekey{Node: e.Node, Group: e.Group, View: e.View, Start: e.T}
		case e.Comp == "flush" && e.Kind == "vs-view-install":
			cur := open[k]
			if cur == nil || (cur.View != "" && cur.View != e.View) {
				// The matching flush-request fell out of the ring (or a
				// stale install); open a fresh attempt at the install.
				supersede(k)
				cur = &NodeRekey{Node: e.Node, Group: e.Group, View: e.View}
				open[k] = cur
			}
			cur.ViewInstall = e.T
			setLast(c.lastView, e.Group, e.Node, e.View)
		case e.Comp == "core" && e.Kind == "plan":
			if cur := open[k]; cur != nil {
				cur.Plan = e.T
				if cls := detailField(e.Detail, "class"); cls != "" {
					cur.Class = cls
				}
			}
		case e.Comp == "core" && e.Kind == "refresh-start":
			supersede(k)
			open[k] = &NodeRekey{Node: e.Node, Group: e.Group,
				Class: "refresh", Refresh: true, Start: e.T}
		case strings.HasPrefix(e.Kind, "kga-"):
			if cur := open[k]; cur != nil {
				cur.Proto = e.Comp
				cur.LastKGA = e.T
				if e.Kind == "kga-state" {
					cur.KGARounds++
					cur.lastState = e.Detail
				}
			}
		case e.Comp == "core" && e.Kind == "key-install":
			cur := open[k]
			if cur == nil {
				cur = &NodeRekey{Node: e.Node, Group: e.Group, View: e.View}
			}
			delete(open, k)
			cur.KeyInstall = e.T
			cur.KeyEpoch = e.KeyEpoch
			if cls := detailField(e.Detail, "class"); cls != "" {
				cur.Class = cls
			}
			if m := detailMembers(e.Detail); len(m) > 0 {
				cur.Members = m
			}
			cur.derivePhases()
			done = append(done, cur)
			byEpoch[epochKey{e.Node, e.Group, e.KeyEpoch}] = cur
			setLast(c.lastEpoch, e.Group, e.Node, e.KeyEpoch)
		case e.Comp == "core" && e.Kind == "first-send":
			if rec := byEpoch[epochKey{e.Node, e.Group, e.KeyEpoch}]; rec != nil && rec.FirstSend.IsZero() {
				rec.FirstSend = e.T
				rec.derivePhases()
			}
		}
	}
	for _, cur := range open {
		cur.derivePhases()
		c.incomplete = append(c.incomplete, cur)
	}
	sort.Slice(c.incomplete, func(i, j int) bool {
		return c.incomplete[i].Start.Before(c.incomplete[j].Start)
	})

	c.rekeys = groupRekeys(done, c.incomplete)
	return c
}

func setLast[V any](m map[string]map[string]V, group, node string, v V) {
	inner := m[group]
	if inner == nil {
		inner = make(map[string]V)
		m[group] = inner
	}
	inner[node] = v
}

// rekeyKey correlates node attempts across the cluster: view-driven
// rekeys share a (group, view id); refreshes share a (group, epoch).
func rekeyKey(n *NodeRekey) string {
	if n.View != "" {
		return n.Group + "|view|" + n.View
	}
	return n.Group + "|epoch|" + strconv.FormatUint(n.KeyEpoch, 10)
}

func groupRekeys(done, incomplete []*NodeRekey) []*Rekey {
	byKey := make(map[string]*Rekey)
	var order []*Rekey
	attach := func(n *NodeRekey) {
		key := rekeyKey(n)
		r := byKey[key]
		if r == nil {
			r = &Rekey{Group: n.Group, View: n.View}
			byKey[key] = r
			order = append(order, r)
		}
		r.Nodes = append(r.Nodes, n)
	}
	for _, n := range done {
		attach(n)
	}
	for _, n := range incomplete {
		// Only attach incompletes to a rekey some node completed (or
		// that share a view); refresh attempts with no epoch stay out.
		if n.View != "" || n.KeyEpoch != 0 {
			attach(n)
		}
	}

	for _, r := range byKey {
		sort.Slice(r.Nodes, func(i, j int) bool { return r.Nodes[i].Node < r.Nodes[j].Node })
		keyed := 0
		classRank := -1
		for _, n := range r.Nodes {
			// Nodes can legitimately disagree on class: the member joining
			// an established group records its own rekey as "initial" while
			// the incumbents record "join". The group-level class is the
			// membership event, so a keyed non-initial class wins.
			if n.Class != "" {
				rank := 0
				if n.Keyed() {
					rank += 2
				}
				if n.Class != "initial" {
					rank++
				}
				if rank > classRank {
					classRank = rank
					r.Class = n.Class
				}
			}
			if n.Proto != "" {
				r.Proto = n.Proto
			}
			if n.KeyEpoch > r.KeyEpoch {
				r.KeyEpoch = n.KeyEpoch
			}
			if len(n.Members) > r.Size {
				r.Size = len(n.Members)
			}
			if !n.Start.IsZero() && (r.startT.IsZero() || n.Start.Before(r.startT)) {
				r.startT = n.Start
			}
			if n.Keyed() {
				keyed++
			}
			maxPhases(&r.Phases, n.Phases)
		}
		r.Complete = keyed > 0
		for _, n := range r.Nodes {
			if !n.Keyed() && !n.Superseded {
				r.Complete = false
			}
		}
		var lastInstall time.Time
		for _, n := range r.Nodes {
			if n.KeyInstall.After(lastInstall) {
				lastInstall = n.KeyInstall
			}
		}
		if !r.startT.IsZero() && !lastInstall.IsZero() {
			r.GroupTotalMs = ms(lastInstall.Sub(r.startT))
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].startT.Equal(order[j].startT) {
			return order[i].View < order[j].View
		}
		return order[i].startT.Before(order[j].startT)
	})
	return order
}

func maxPhases(dst *Phases, p Phases) {
	if p.FlushMs > dst.FlushMs {
		dst.FlushMs = p.FlushMs
	}
	if p.AlignMs > dst.AlignMs {
		dst.AlignMs = p.AlignMs
	}
	if p.KGAMs > dst.KGAMs {
		dst.KGAMs = p.KGAMs
	}
	if p.InstallMs > dst.InstallMs {
		dst.InstallMs = p.InstallMs
	}
	if p.FirstSendMs > dst.FirstSendMs {
		dst.FirstSendMs = p.FirstSendMs
	}
	if p.TotalMs > dst.TotalMs {
		dst.TotalMs = p.TotalMs
	}
}

// detailField extracts "key=value" from an event detail string. A value
// opening with '[' runs to the matching ']' (member lists contain spaces).
func detailField(detail, key string) string {
	prefix := key + "="
	for i := 0; i < len(detail); {
		j := strings.Index(detail[i:], prefix)
		if j < 0 {
			return ""
		}
		j += i
		// Must be at a token start.
		if j > 0 && detail[j-1] != ' ' {
			i = j + len(prefix)
			continue
		}
		v := detail[j+len(prefix):]
		if strings.HasPrefix(v, "[") {
			if end := strings.Index(v, "]"); end >= 0 {
				return v[:end+1]
			}
			return v
		}
		if end := strings.IndexByte(v, ' '); end >= 0 {
			return v[:end]
		}
		return v
	}
	return ""
}

// detailMembers parses "members=[a b c]" from a detail string.
func detailMembers(detail string) []string {
	v := detailField(detail, "members")
	if len(v) < 2 || v[0] != '[' || v[len(v)-1] != ']' {
		return nil
	}
	return strings.Fields(v[1 : len(v)-1])
}
