// Package chaos is a deterministic fault-injection harness for the secure
// group communication stack: a seeded schedule generator plus a cluster
// driver that replays the schedule against live daemons and clients, with
// faults injected by faultnet over transport.MemNetwork (or over TCP
// through faultnet's relay), and then checks global, cluster-wide invariants
// (view agreement, key agreement, key freshness, VS safety, and
// exponentiation accounting).
//
// The same seed always produces the byte-identical schedule and the
// byte-identical invariant trace, so any failing run is a one-line repro:
//
//	go test ./internal/chaos -run TestChaosMatrix -chaos.seed=N
//
// The harness is the substrate for the repo's torture and churn tests and
// for sgcbench's -experiment chaos mode.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// EventKind classifies one scheduled fault or action.
type EventKind int

// Schedule event kinds. They cover the paper's failure model (Table 1):
// voluntary join/leave, client disconnect, fail-stop daemon crash,
// crash-and-recover, partition, heal/merge — plus link-level faults
// (drop-rate bursts, latency changes) and in-chaos traffic probes.
const (
	EvJoin      EventKind = iota + 1 // a new client joins the group
	EvLeave                          // a client leaves voluntarily
	EvClientGo                       // a client disconnects abruptly
	EvCrash                          // fail-stop a daemon and its clients
	EvRecover                        // restart a crashed daemon (same name)
	EvPartition                      // split the daemons into two components
	EvHeal                           // reconnect every component
	EvDropOn                         // begin a message drop-rate burst
	EvDropOff                        // end the drop-rate burst
	EvLatency                        // change the one-way link latency
	EvSend                           // a client multicasts an epoch-tagged probe
	EvRefresh                        // a client requests a key refresh
	EvSettle                         // idle wait
	EvReset                          // reset the live link between two daemons (TCP)
)

func (k EventKind) String() string {
	switch k {
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvClientGo:
		return "disconnect"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvDropOn:
		return "drop-on"
	case EvDropOff:
		return "drop-off"
	case EvLatency:
		return "latency"
	case EvSend:
		return "send"
	case EvRefresh:
		return "refresh"
	case EvSettle:
		return "settle"
	case EvReset:
		return "reset"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one fully concrete scheduled action: the generator resolves all
// randomness (which client, which daemon, which split) at generation time,
// so the driver replays it verbatim.
type Event struct {
	Kind   EventKind
	Client string     // join/leave/disconnect/send/refresh subject
	Daemon string     // join target daemon, crash/recover/reset subject
	Peer   string     // the other endpoint of an EvReset link
	Split  [][]string // partition components (daemon names)
	Rate   int        // drop rate per million (EvDropOn)
	Delay  time.Duration
	// Settle is how long the driver pauses after the event.
	Settle time.Duration
}

// String renders the event as one deterministic schedule line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", e.Kind)
	switch e.Kind {
	case EvJoin:
		fmt.Fprintf(&b, " client=%s daemon=%s", e.Client, e.Daemon)
	case EvLeave, EvClientGo, EvSend, EvRefresh:
		fmt.Fprintf(&b, " client=%s", e.Client)
	case EvCrash, EvRecover:
		fmt.Fprintf(&b, " daemon=%s", e.Daemon)
	case EvReset:
		fmt.Fprintf(&b, " link=%s<->%s", e.Daemon, e.Peer)
	case EvPartition:
		parts := make([]string, len(e.Split))
		for i, g := range e.Split {
			parts[i] = "{" + strings.Join(g, ",") + "}"
		}
		fmt.Fprintf(&b, " split=%s", strings.Join(parts, "|"))
	case EvDropOn:
		fmt.Fprintf(&b, " rate=%d/1e6", e.Rate)
	case EvLatency:
		fmt.Fprintf(&b, " delay=%s", e.Delay)
	}
	fmt.Fprintf(&b, " settle=%s", e.Settle)
	return b.String()
}

// Weights biases the generator's event mix. Zero-valued fields fall back to
// DefaultWeights; an event whose precondition fails (e.g. heal while not
// partitioned) is re-rolled, so impossible kinds simply never fire.
type Weights struct {
	Join, Leave, Disconnect  int
	Crash, Recover           int
	Partition, Heal          int
	DropOn, DropOff, Latency int
	Send, Refresh, Settle    int
	// Reset injects live-connection resets. Its default is 0 — it only
	// makes sense over a transport with real connections (the TCP proxy
	// mode), and a zero weight keeps every pre-existing mem-network seed
	// generating its exact historical schedule.
	Reset int
}

// DefaultWeights is the mix used by the test matrix: membership churn and
// connectivity faults dominate, with steady probe traffic in between.
func DefaultWeights() Weights {
	return Weights{
		Join: 14, Leave: 8, Disconnect: 8,
		Crash: 6, Recover: 10,
		Partition: 10, Heal: 14,
		DropOn: 4, DropOff: 8, Latency: 4,
		Send: 16, Refresh: 6, Settle: 6,
	}
}

func (w Weights) withDefaults() Weights {
	d := DefaultWeights()
	fill := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	return Weights{
		Join: fill(w.Join, d.Join), Leave: fill(w.Leave, d.Leave), Disconnect: fill(w.Disconnect, d.Disconnect),
		Crash: fill(w.Crash, d.Crash), Recover: fill(w.Recover, d.Recover),
		Partition: fill(w.Partition, d.Partition), Heal: fill(w.Heal, d.Heal),
		DropOn: fill(w.DropOn, d.DropOn), DropOff: fill(w.DropOff, d.DropOff), Latency: fill(w.Latency, d.Latency),
		Send: fill(w.Send, d.Send), Refresh: fill(w.Refresh, d.Refresh), Settle: fill(w.Settle, d.Settle),
		Reset: w.Reset, // no default: 0 unless explicitly requested
	}
}

// Schedule is a concrete, replayable fault schedule.
type Schedule struct {
	Seed    uint64
	Daemons []string // initial daemon roster
	Events  []Event
	// FinalClients is the alive-client roster the schedule's own model
	// predicts after the last event: the membership the cluster must
	// converge to (the harness's expected final view).
	FinalClients []string
}

// String renders the whole schedule deterministically; two schedules from
// the same seed are byte-identical.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos schedule seed=%d daemons=%s events=%d\n",
		s.Seed, strings.Join(s.Daemons, ","), len(s.Events))
	for i, e := range s.Events {
		fmt.Fprintf(&b, "%3d  %s\n", i, e.String())
	}
	fmt.Fprintf(&b, "expected final clients: %s\n", strings.Join(s.FinalClients, ","))
	return b.String()
}

// rng is splitmix64: tiny, seedable, and stable across platforms — the
// schedule must never depend on math/rand's version-dependent streams.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// pick selects one of the sorted keys.
func (r *rng) pick(keys []string) string {
	return keys[r.intn(len(keys))]
}

// model tracks the simulated cluster state during generation so every
// emitted event is well-formed when replayed (never crash the last daemon,
// never leave the last client, never heal an unpartitioned network).
type model struct {
	daemonsUp   map[string]bool
	daemonsDown map[string]bool
	clients     map[string]string // client -> hosting daemon
	partitioned bool
	dropping    bool
	nextClient  int
	maxClients  int
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Generate builds the deterministic schedule for a seed: nDaemons initial
// daemons, nEvents events, at most maxClients concurrent clients. The
// generator starts from one client per daemon (the paper's testbed shape)
// and walks a weighted random schedule whose every step is legal in its own
// simulated cluster model.
func Generate(seed uint64, nDaemons, nEvents, maxClients int, w Weights) *Schedule {
	if nDaemons < 2 {
		nDaemons = 2
	}
	if maxClients < nDaemons {
		maxClients = nDaemons
	}
	w = w.withDefaults()
	r := &rng{state: seed}
	m := &model{
		daemonsUp:   make(map[string]bool),
		daemonsDown: make(map[string]bool),
		clients:     make(map[string]string),
		maxClients:  maxClients,
	}
	s := &Schedule{Seed: seed}
	for i := 0; i < nDaemons; i++ {
		name := fmt.Sprintf("d%02d", i)
		s.Daemons = append(s.Daemons, name)
		m.daemonsUp[name] = true
	}

	// Initial roster: one client per daemon, placed before the schedule
	// proper so every run starts from a secured multi-member group.
	for _, d := range s.Daemons {
		s.Events = append(s.Events, Event{
			Kind:   EvJoin,
			Client: m.newClient(d),
			Daemon: d,
			Settle: 50 * time.Millisecond,
		})
	}

	kinds := []struct {
		kind   EventKind
		weight int
	}{
		{EvJoin, w.Join}, {EvLeave, w.Leave}, {EvClientGo, w.Disconnect},
		{EvCrash, w.Crash}, {EvRecover, w.Recover},
		{EvPartition, w.Partition}, {EvHeal, w.Heal},
		{EvDropOn, w.DropOn}, {EvDropOff, w.DropOff}, {EvLatency, w.Latency},
		{EvSend, w.Send}, {EvRefresh, w.Refresh}, {EvSettle, w.Settle},
		{EvReset, w.Reset},
	}
	total := 0
	for _, k := range kinds {
		total += k.weight
	}

	for len(s.Events) < nDaemons+nEvents {
		roll := r.intn(total)
		var kind EventKind
		for _, k := range kinds {
			if roll < k.weight {
				kind = k.kind
				break
			}
			roll -= k.weight
		}
		if ev, ok := m.emit(kind, r); ok {
			s.Events = append(s.Events, ev)
		}
	}
	s.FinalClients = sortedKeys(m.clients)
	return s
}

func (m *model) newClient(daemon string) string {
	name := fmt.Sprintf("c%02d", m.nextClient)
	m.nextClient++
	m.clients[name] = daemon
	return name
}

// emit attempts one event of the given kind against the model; ok=false
// means the precondition failed and the caller should re-roll.
func (m *model) emit(kind EventKind, r *rng) (Event, bool) {
	settle := func(lo, hi int) time.Duration {
		return time.Duration(lo+r.intn(hi-lo+1)) * time.Millisecond
	}
	switch kind {
	case EvJoin:
		if len(m.clients) >= m.maxClients {
			return Event{}, false
		}
		d := r.pick(sortedKeys(m.daemonsUp))
		return Event{Kind: EvJoin, Client: m.newClient(d), Daemon: d, Settle: settle(30, 120)}, true
	case EvLeave, EvClientGo:
		if len(m.clients) < 2 {
			return Event{}, false
		}
		c := r.pick(sortedKeys(m.clients))
		delete(m.clients, c)
		return Event{Kind: kind, Client: c, Settle: settle(30, 120)}, true
	case EvCrash:
		if len(m.daemonsUp) < 2 {
			return Event{}, false
		}
		d := r.pick(sortedKeys(m.daemonsUp))
		// Keep at least one client alive through the whole schedule.
		survivors := 0
		for _, host := range m.clients {
			if host != d {
				survivors++
			}
		}
		if survivors == 0 {
			return Event{}, false
		}
		delete(m.daemonsUp, d)
		m.daemonsDown[d] = true
		for c, host := range m.clients {
			if host == d {
				delete(m.clients, c)
			}
		}
		return Event{Kind: EvCrash, Daemon: d, Settle: settle(50, 150)}, true
	case EvRecover:
		if len(m.daemonsDown) == 0 {
			return Event{}, false
		}
		d := r.pick(sortedKeys(m.daemonsDown))
		delete(m.daemonsDown, d)
		m.daemonsUp[d] = true
		return Event{Kind: EvRecover, Daemon: d, Settle: settle(50, 150)}, true
	case EvPartition:
		up := sortedKeys(m.daemonsUp)
		if len(up) < 2 {
			return Event{}, false
		}
		// Random two-way split with both sides non-empty.
		cut := 1 + r.intn(len(up)-1)
		// Shuffle deterministically (Fisher-Yates on the sorted list).
		for i := len(up) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			up[i], up[j] = up[j], up[i]
		}
		a, b := append([]string{}, up[:cut]...), append([]string{}, up[cut:]...)
		sort.Strings(a)
		sort.Strings(b)
		m.partitioned = true
		return Event{Kind: EvPartition, Split: [][]string{a, b}, Settle: settle(80, 250)}, true
	case EvHeal:
		if !m.partitioned {
			return Event{}, false
		}
		m.partitioned = false
		return Event{Kind: EvHeal, Settle: settle(80, 250)}, true
	case EvDropOn:
		if m.dropping {
			return Event{}, false
		}
		m.dropping = true
		return Event{Kind: EvDropOn, Rate: 10_000 * (1 + r.intn(15)), Settle: settle(30, 100)}, true
	case EvDropOff:
		if !m.dropping {
			return Event{}, false
		}
		m.dropping = false
		return Event{Kind: EvDropOff, Settle: settle(30, 100)}, true
	case EvLatency:
		return Event{Kind: EvLatency, Delay: time.Duration(r.intn(4)) * time.Millisecond, Settle: settle(20, 60)}, true
	case EvSend, EvRefresh:
		if len(m.clients) == 0 {
			return Event{}, false
		}
		return Event{Kind: kind, Client: r.pick(sortedKeys(m.clients)), Settle: settle(10, 50)}, true
	case EvSettle:
		return Event{Kind: EvSettle, Settle: settle(40, 160)}, true
	case EvReset:
		up := sortedKeys(m.daemonsUp)
		if len(up) < 2 {
			return Event{}, false
		}
		i := r.intn(len(up))
		j := r.intn(len(up) - 1)
		if j >= i {
			j++
		}
		return Event{Kind: EvReset, Daemon: up[i], Peer: up[j], Settle: settle(30, 100)}, true
	}
	return Event{}, false
}
