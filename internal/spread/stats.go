package spread

import "repro/internal/obs"

// Stats is a snapshot of a daemon's counters, for operations tooling and
// the benchmark harness.
type Stats struct {
	// View is the installed daemon view.
	View View
	// ViewsInstalled counts membership changes since start.
	ViewsInstalled int
	// MsgsSent and MsgsDelivered count daemon-level data messages.
	MsgsSent      int
	MsgsDelivered int
	// MsgsRecovered counts messages merged from delivery-cut unions.
	MsgsRecovered int
	// MsgsRetransmitted counts messages re-sent to close link-loss gaps
	// reported by NACKs.
	MsgsRetransmitted int
	// Groups is the number of known process groups.
	Groups int
	// Clients is the number of local client connections.
	Clients int
	// Retained is the current size of the recovery buffer.
	Retained int
}

// statsCounters caches the daemon's registry instruments so hot-path
// updates are single atomic adds. The registry is the one source of truth:
// Stats() and the /metrics endpoint read the same counters.
type statsCounters struct {
	viewsInstalled    *obs.Counter
	msgsSent          *obs.Counter
	msgsDelivered     *obs.Counter
	msgsRecovered     *obs.Counter
	msgsRetransmitted *obs.Counter
	nacksSent         *obs.Counter
	// echoDeferred counts clock echoes an empty advertisement budget
	// postponed to the echo timer: how often the budget binds.
	echoDeferred *obs.Counter
	// dataDropped counts data frames dropped for their sender: one not in
	// the view, or a frame relayed by a daemon other than its origin.
	dataDropped   *obs.Counter
	retainedGauge *obs.Gauge
	clientsGauge  *obs.Gauge

	// Per-wire-kind traffic, indexed by msgKind.
	sentMsgs  [kindMax]*obs.Counter
	sentBytes [kindMax]*obs.Counter
	recvMsgs  [kindMax]*obs.Counter
	recvBytes [kindMax]*obs.Counter
}

func newStatsCounters(reg *obs.Registry) statsCounters {
	c := statsCounters{
		viewsInstalled:    reg.Counter("spread_views_installed"),
		msgsSent:          reg.Counter("spread_msgs_sent"),
		msgsDelivered:     reg.Counter("spread_msgs_delivered"),
		msgsRecovered:     reg.Counter("spread_msgs_recovered"),
		msgsRetransmitted: reg.Counter("spread_msgs_retransmitted"),
		nacksSent:         reg.Counter("spread_nacks_sent"),
		echoDeferred:      reg.Counter("spread_echo_deferred"),
		dataDropped:       reg.Counter("spread_foreign_data_dropped"),
		retainedGauge:     reg.Gauge("spread_retained"),
		clientsGauge:      reg.Gauge("spread_clients"),
	}
	for k := msgKind(1); k < kindMax; k++ {
		name := kindName(k)
		c.sentMsgs[k] = reg.Counter(obs.LabelName("spread_wire_sent_msgs", name))
		c.sentBytes[k] = reg.Counter(obs.LabelName("spread_wire_sent_bytes", name))
		c.recvMsgs[k] = reg.Counter(obs.LabelName("spread_wire_recv_msgs", name))
		c.recvBytes[k] = reg.Counter(obs.LabelName("spread_wire_recv_bytes", name))
	}
	return c
}

// countSent tallies one outbound wire frame of the given kind.
func (c *statsCounters) countSent(kind msgKind, n int) {
	if kind <= 0 || kind >= kindMax {
		return
	}
	c.sentMsgs[kind].Inc()
	c.sentBytes[kind].Add(int64(n))
}

// countRecv tallies one inbound wire frame of the given kind.
func (c *statsCounters) countRecv(kind msgKind, n int) {
	if kind <= 0 || kind >= kindMax {
		return
	}
	c.recvMsgs[kind].Inc()
	c.recvBytes[kind].Add(int64(n))
}

// Stats returns a snapshot of the daemon's counters. The counters are
// registry-backed atomics, so the numeric part of the snapshot is
// consistent even while the event loop is mutating them; only the view
// and table sizes require a trip through the loop.
func (d *Daemon) Stats() Stats {
	out := Stats{
		ViewsInstalled:    int(d.counters.viewsInstalled.Value()),
		MsgsSent:          int(d.counters.msgsSent.Value()),
		MsgsDelivered:     int(d.counters.msgsDelivered.Value()),
		MsgsRecovered:     int(d.counters.msgsRecovered.Value()),
		MsgsRetransmitted: int(d.counters.msgsRetransmitted.Value()),
	}
	_ = d.do(func() {
		out.View = View{ID: d.view.ID, Members: append([]string(nil), d.view.Members...)}
		out.Groups = len(d.groups)
		out.Clients = len(d.clients)
		for _, mb := range d.members {
			out.Retained += mb.retained.len()
		}
	})
	return out
}

// Obs returns the daemon's observability scope: its causal trace
// recorder, metrics registry and logger. The introspection endpoints
// (cmd/spreadd -debug-addr) and the chaos harness's merged trace dump
// read from here.
func (d *Daemon) Obs() *obs.Scope { return d.obs }
