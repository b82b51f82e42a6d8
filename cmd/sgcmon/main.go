// Command sgcmon is the live fleet monitor: once per interval it polls
// every daemon's introspection endpoints (spreadd -debug-addr) for the
// trace events past its cursor (/trace?since=N) and the cumulative
// metrics (/metrics), and folds them into one cluster-wide view —
// sliding-window wire rates, merged rekey-latency histograms, view/epoch
// convergence — evaluating the same anomaly detectors `sgctrace report`
// runs post-hoc, but incrementally, while the experiment is still
// running. A daemon keeps no state per monitor, so a slow or stuck
// monitor costs it nothing beyond one request pair per interval.
//
// Usage:
//
//	sgcmon [-interval 2s] [-window 60s] [-stall 2s] [-group G] [-json] \
//	       [-once] [-duration 5s] name=http://host:port ...
//
// By default it redraws a text dashboard every interval; -json emits one
// JSON document per evaluation instead. -once waits -duration, evaluates
// a single time, prints, and exits — status 0 when the fleet is healthy
// and converged, 3 when any alert is active (the mon-smoke gate scripts
// against this).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/causal"
)

func main() {
	fs := flag.NewFlagSet("sgcmon", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll and dashboard refresh interval")
	window := fs.Duration("window", 60*time.Second, "sliding window for rates and anomaly evaluation")
	stall := fs.Duration("stall", analyze.DefaultStallThreshold, "idle time before an open rekey counts as stalled")
	group := fs.String("group", "", "restrict trace analysis to one process group")
	jsonOut := fs.Bool("json", false, "emit JSON documents instead of the text dashboard")
	once := fs.Bool("once", false, "evaluate once after -duration and exit (3 when alerts are active)")
	duration := fs.Duration("duration", 5*time.Second, "how long -once observes before evaluating")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sgcmon [flags] name=http://host:port ...")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])

	targets, err := obs.ParseEndpoints(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgcmon:", err)
		os.Exit(2)
	}

	mon := newMonitor(*window, *stall, *group)
	for _, t := range targets {
		mon.addNode(t.Name, t.Addr)
	}
	go mon.pollEvery(context.Background(), *interval)

	render := func() *FleetView {
		v := mon.view(time.Now())
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(v)
		} else {
			v.WriteText(os.Stdout)
		}
		return v
	}

	if *once {
		time.Sleep(*duration)
		if v := render(); len(v.Alerts) > 0 {
			os.Exit(3)
		}
		return
	}

	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for range tick.C {
		render()
	}
}

// ---- polling ----

// sample is one poll's cumulative wire-send counters, stamped at receipt.
type sample struct {
	at   time.Time
	sent map[string]int64
}

// nodeState is everything the monitor knows about one daemon.
type nodeState struct {
	name, url string
	connected bool // the last poll of both endpoints succeeded
	lastErr   string

	polled    bool   // a poll has succeeded: later truncations lose events
	cursor    uint64 // the trace cursor to poll from (next_since)
	metrics   obs.Snapshot
	samples   []sample
	events    []obs.Event
	truncated int // ring truncations after the first poll: events lost for good
}

type monitor struct {
	window time.Duration
	stall  time.Duration
	group  string

	mu    sync.Mutex
	nodes map[string]*nodeState
	order []string
	start time.Time
}

func newMonitor(window, stall time.Duration, group string) *monitor {
	return &monitor{
		window: window,
		stall:  stall,
		group:  group,
		nodes:  make(map[string]*nodeState),
		start:  time.Now(),
	}
}

func (m *monitor) addNode(name, url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[name]; ok {
		return
	}
	// The zero baseline at monitor start: a node's first sample counts
	// everything it sent before it.
	m.nodes[name] = &nodeState{name: name, url: url, lastErr: "awaiting first poll",
		samples: []sample{{at: m.start}}}
	m.order = append(m.order, name)
}

// pollEvery polls every node now and then once per interval until ctx is
// done, each node on its own goroutine so that a slow daemon delays only
// its own polls. A request times out after an interval (at least 1 s).
func (m *monitor) pollEvery(ctx context.Context, interval time.Duration) {
	cl := &http.Client{Timeout: max(interval, time.Second)}
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				m.poll(cl, name)
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
			}
		}()
	}
	wg.Wait()
}

// pollResult is one node's answer to one poll: both payloads, or the
// error that cut the poll short.
type pollResult struct {
	at      time.Time
	trace   obs.TracePayload
	metrics obs.MetricsPayload
	err     error
}

// poll reads one node's trace past its cursor and its metrics, and folds
// the answer in.
func (m *monitor) poll(cl *http.Client, name string) {
	m.mu.Lock()
	n := m.nodes[name]
	addr, q := n.url, url.Values{"since": {strconv.FormatUint(n.cursor, 10)}}
	m.mu.Unlock()
	if m.group != "" {
		q.Set("group", m.group)
	}
	var r pollResult
	r.err = obs.FetchJSON(cl, addr, "/trace", q, &r.trace)
	if r.err == nil {
		r.err = obs.FetchJSON(cl, addr, "/metrics", nil, &r.metrics)
	}
	r.at = time.Now()
	m.apply(name, r)
}

// apply folds one poll's answer into the node's state. A failed poll
// changes nothing but the node's health.
func (m *monitor) apply(name string, r pollResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[name]
	if n == nil {
		return
	}
	if r.err != nil {
		n.connected, n.lastErr = false, r.err.Error()
		return
	}
	n.connected, n.lastErr = true, ""
	// The first poll reads from cursor 0 and expects a long-lived
	// daemon's ring to have wrapped; only later truncations lose events.
	if r.trace.Truncated && n.polled {
		n.truncated++
	}
	n.polled = true
	n.cursor = r.trace.NextSince
	n.events = append(n.events, r.trace.Events...)
	n.metrics = r.metrics.Metrics
	sent := make(map[string]int64)
	for cname, v := range n.metrics.Counters {
		if strings.HasPrefix(cname, sentMsgsPrefix) || strings.HasPrefix(cname, sentBytesPrefix) {
			sent[cname] = v
		}
	}
	n.samples = append(n.samples, sample{at: r.at, sent: sent})
}

// ---- evaluation ----

// Rate is a per-wire-kind traffic rate over the sliding window.
type Rate struct {
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// NodeView is one daemon's row in the fleet view.
type NodeView struct {
	Name      string `json:"name"`
	Connected bool   `json:"connected"`
	Error     string `json:"error,omitempty"`
	Events    int    `json:"events_in_window"`
	Truncated int    `json:"truncations,omitempty"`
	View      string `json:"view,omitempty"`
}

// HistView is one merged latency distribution.
type HistView struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// FleetView is one evaluation of the whole fleet: what the dashboard
// renders and what -json emits.
type FleetView struct {
	At        time.Time           `json:"at"`
	WindowSec float64             `json:"window_sec"`
	Nodes     []NodeView          `json:"nodes"`
	SendRates map[string]Rate     `json:"send_rates,omitempty"` // by wire kind
	Rekey     map[string]HistView `json:"rekey_latency,omitempty"`
	Converged bool                `json:"converged"`
	Views     map[string][]string `json:"views,omitempty"`  // daemon view -> nodes
	Epochs    map[string][]string `json:"epochs,omitempty"` // group/epoch -> nodes
	Anomalies []analyze.Anomaly   `json:"anomalies,omitempty"`
	Causal    []causal.Violation  `json:"causal_violations,omitempty"`
	Alerts    []string            `json:"alerts,omitempty"`
}

const (
	sentMsgsPrefix  = "spread_wire_sent_msgs{"
	sentBytesPrefix = "spread_wire_sent_bytes{"
)

// view evaluates the fleet at now: prune windows, compute rates and
// convergence, run the anomaly detectors over the merged window trace.
func (m *monitor) view(now time.Time) *FleetView {
	m.mu.Lock()
	defer m.mu.Unlock()

	cutoff := now.Add(-m.window)
	elapsed := now.Sub(m.start)
	effective := m.window
	if elapsed < effective {
		effective = elapsed
	}
	if effective < time.Second {
		effective = time.Second
	}

	v := &FleetView{
		At:        now,
		WindowSec: effective.Seconds(),
		Converged: true,
		Views:     make(map[string][]string),
		Epochs:    make(map[string][]string),
	}

	rateSums := make(map[string]int64)
	mergedHists := make(map[string]obs.HistogramSnapshot)
	var traces [][]obs.Event
	connected := 0
	for _, name := range m.order {
		n := m.nodes[name]
		n.events = pruneEvents(n.events, cutoff)
		var sent map[string]int64
		n.samples, sent = windowSent(n.samples, cutoff)

		nv := NodeView{Name: n.name, Connected: n.connected, Error: n.lastErr,
			Events: len(n.events), Truncated: n.truncated}
		if n.connected {
			connected++
		} else {
			v.Alerts = append(v.Alerts, fmt.Sprintf("node %s unreachable: %s", n.name, n.lastErr))
		}
		if n.truncated > 0 {
			v.Alerts = append(v.Alerts, fmt.Sprintf("node %s trace truncated %d time(s): events lost", n.name, n.truncated))
		}

		for cname, inc := range sent {
			if inc > 0 {
				rateSums[cname] += inc
			}
		}
		if len(n.events) > 0 {
			traces = append(traces, n.events)
		}

		// Convergence inputs: the node's latest daemon view install and
		// latest key epoch per group.
		var lastView string
		lastEpoch := make(map[string]uint64)
		for _, e := range n.events {
			if e.Comp == "spread" && e.Kind == "view-install" {
				lastView = e.View
			}
			if e.Kind == "key-install" && e.Group != "" {
				lastEpoch[e.Group] = e.KeyEpoch
			}
		}
		nv.View = lastView
		if n.connected && lastView != "" {
			v.Views[lastView] = append(v.Views[lastView], n.name)
		}
		if n.connected {
			for g, ep := range lastEpoch {
				key := fmt.Sprintf("%s/epoch-%d", g, ep)
				v.Epochs[key] = append(v.Epochs[key], n.name)
			}
		}

		// Merged rekey-latency histograms across nodes.
		for hname, h := range n.metrics.Histograms {
			if !strings.Contains(hname, "rekey") {
				continue
			}
			if v.Rekey == nil {
				v.Rekey = make(map[string]HistView)
			}
			merged := mergedHists[hname]
			mergedHists[hname] = obs.MergeHistograms(merged, h)
		}

		v.Nodes = append(v.Nodes, nv)
	}

	for hname, h := range mergedHists {
		v.Rekey[hname] = HistView{Count: h.Count, P50Ms: h.Quantile(0.5), P99Ms: h.Quantile(0.99), MaxMs: h.MaxMs}
	}

	if len(rateSums) > 0 {
		v.SendRates = make(map[string]Rate)
	}
	for cname, sum := range rateSums {
		kind := wireKind(cname)
		r := v.SendRates[kind]
		if strings.HasPrefix(cname, sentMsgsPrefix) {
			r.MsgsPerSec = float64(sum) / effective.Seconds()
		} else {
			r.BytesPerSec = float64(sum) / effective.Seconds()
		}
		v.SendRates[kind] = r
	}

	// Convergence: every connected node that has installed a view must
	// agree on it, and view peers must agree on each group's epoch.
	if len(v.Views) > 1 {
		v.Converged = false
		v.Alerts = append(v.Alerts, "daemon views diverge: "+mapSummary(v.Views))
	}
	if div := epochDivergence(v.Epochs); len(div) > 0 {
		v.Converged = false
		for _, d := range div {
			v.Alerts = append(v.Alerts, "key epochs diverge: "+d)
		}
	}
	if connected < len(m.order) {
		v.Converged = false
	}

	// The same detectors sgctrace report runs post-hoc, over the merged
	// in-window trace.
	mergedTrace := obs.Merge(traces...)
	v.Anomalies = analyze.DetectAnomalies(mergedTrace,
		analyze.Options{StallThreshold: m.stall, Group: m.group})
	for _, a := range v.Anomalies {
		v.Alerts = append(v.Alerts, a.String())
	}
	// The causal-order checker runs live too: a delivery outside its
	// view or a key installed ahead of a member's flush is an alert, not
	// just a post-mortem finding. Window pruning evicts old events, which
	// the checker tolerates by skipping assertions it cannot resolve.
	v.Causal = causal.Check(mergedTrace)
	for _, cv := range v.Causal {
		v.Alerts = append(v.Alerts, "causal order: "+cv.String())
	}
	sort.Strings(v.Alerts)
	return v
}

func pruneEvents(events []obs.Event, cutoff time.Time) []obs.Event {
	i := 0
	for i < len(events) && events[i].T.Before(cutoff) {
		i++
	}
	return events[i:]
}

// windowSent drops the samples before the window's base — the last sample
// at or before cutoff, else the oldest — and returns each wire-send
// counter's increase since the base. Increases are summed poll by poll,
// and a counter that went down (a daemon restarted behind the same
// address) counts its new value, so a rate never goes negative.
func windowSent(samples []sample, cutoff time.Time) ([]sample, map[string]int64) {
	base := 0
	for base+1 < len(samples) && !samples[base+1].at.After(cutoff) {
		base++
	}
	samples = samples[base:]
	inc := make(map[string]int64)
	for i := 1; i < len(samples); i++ {
		for cname, v := range samples[i].sent {
			d := v - samples[i-1].sent[cname]
			if d < 0 {
				d = v
			}
			inc[cname] += d
		}
	}
	return samples, inc
}

// wireKind extracts the label from "spread_wire_sent_msgs{kind}".
func wireKind(counter string) string {
	i := strings.IndexByte(counter, '{')
	if i < 0 || !strings.HasSuffix(counter, "}") {
		return counter
	}
	return counter[i+1 : len(counter)-1]
}

// epochDivergence reports groups whose connected nodes disagree on the
// key epoch. Keys are "group/epoch-N".
func epochDivergence(epochs map[string][]string) []string {
	byGroup := make(map[string][]string)
	for key, nodes := range epochs {
		g, _, ok := strings.Cut(key, "/epoch-")
		if !ok {
			continue
		}
		byGroup[g] = append(byGroup[g], fmt.Sprintf("%s: %v", key, nodes))
	}
	var out []string
	for g, entries := range byGroup {
		if len(entries) > 1 {
			sort.Strings(entries)
			out = append(out, fmt.Sprintf("group %s (%s)", g, strings.Join(entries, "; ")))
		}
	}
	sort.Strings(out)
	return out
}

func mapSummary(m map[string][]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		sort.Strings(m[k])
		parts = append(parts, fmt.Sprintf("%s: %v", k, m[k]))
	}
	return strings.Join(parts, "; ")
}

// ---- rendering ----

// WriteText renders the dashboard.
func (v *FleetView) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== sgcmon %s (window %.0fs) ==\n", v.At.Format("15:04:05"), v.WindowSec)
	for _, n := range v.Nodes {
		state := "up"
		if !n.Connected {
			state = "DOWN"
			if n.Error != "" {
				state += " (" + n.Error + ")"
			}
		}
		fmt.Fprintf(w, "  %-8s %-6s events=%-5d", n.Name, state, n.Events)
		if n.View != "" {
			fmt.Fprintf(w, " view=%s", n.View)
		}
		if n.Truncated > 0 {
			fmt.Fprintf(w, " truncated=%d", n.Truncated)
		}
		fmt.Fprintln(w)
	}
	if len(v.SendRates) > 0 {
		kinds := make([]string, 0, len(v.SendRates))
		for k := range v.SendRates {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintln(w, "  wire send rates:")
		for _, k := range kinds {
			r := v.SendRates[k]
			fmt.Fprintf(w, "    %-12s %8.1f msg/s %12.0f B/s\n", k, r.MsgsPerSec, r.BytesPerSec)
		}
	}
	if len(v.Rekey) > 0 {
		names := make([]string, 0, len(v.Rekey))
		for n := range v.Rekey {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  rekey latency (fleet-merged):")
		for _, n := range names {
			h := v.Rekey[n]
			fmt.Fprintf(w, "    %-28s n=%-5d p50=%.2fms p99=%.2fms max=%.2fms\n",
				n, h.Count, h.P50Ms, h.P99Ms, h.MaxMs)
		}
	}
	if v.Converged {
		fmt.Fprintln(w, "  convergence: OK")
	} else {
		fmt.Fprintln(w, "  convergence: DIVERGED")
	}
	if len(v.Alerts) == 0 {
		fmt.Fprintln(w, "  alerts: none")
	} else {
		fmt.Fprintf(w, "  alerts (%d):\n", len(v.Alerts))
		for _, a := range v.Alerts {
			fmt.Fprintln(w, "    !", a)
		}
	}
}
