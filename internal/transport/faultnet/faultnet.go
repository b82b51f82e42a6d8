// Package faultnet is the repo's one fault injector, a deterministic,
// seed-driven layer over any transport.Network: per-link drop, duplicate,
// delay, partition, crash, and (in proxy mode) connection reset, driven by
// the same splitmix64 streams as the chaos schedule generator so a seed
// replays the identical fault pattern. The networks underneath are
// fault-free.
//
// Two modes share one fault surface:
//
//   - Interface mode (New): wraps any Network and applies faults at the
//     Send boundary. The in-memory testbed (spread.Cluster) and the chaos
//     harness's mem transport run on it over transport.MemNetwork.
//   - Proxy mode (NewTCPProxy, proxy.go): interposes a frame-aware
//     localhost TCP relay on every link, so drops, partitions, and resets
//     hit real sockets — the kernel's connection state, the transport's
//     redial supervisor, and the batched write path all see the fault.
//
// Both modes keep every link FIFO: an injected latency delays a link's
// frames without reordering them.
//
// Determinism: every link ("from|to" pair) owns a private splitmix64
// stream seeded seed^fnv64(link), and each decision consumes a fixed number of
// draws. Per-link decision sequences therefore depend only on the seed and
// that link's send count — not on goroutine interleaving across links. The
// Trace method exposes the decisions for replay tests.
package faultnet

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/transport"
)

// Net wraps an inner Network with seeded fault injection. The zero value is
// not usable; construct with New or NewTCPProxy.
type Net struct {
	inner transport.Network

	mu       sync.Mutex
	seed     uint64
	links    map[linkKey]*link
	comp     map[string]int // partition component per endpoint
	crashed  map[string]bool
	nodes    map[string]*node // live attached endpoints
	dropPM   int              // drop probability out of 1e6
	dupPM    int              // duplicate probability out of 1e6
	latency  time.Duration
	trace    []string
	proxies  map[string]*relay // proxy mode only
	tcp      *transport.TCPNetwork
	resetGen int // bumped per Reset so trace entries stay unique
}

// New wraps inner in interface mode: faults are applied at Send time.
func New(inner transport.Network, seed uint64) *Net {
	return &Net{
		inner:   inner,
		seed:    seed,
		links:   make(map[linkKey]*link),
		comp:    make(map[string]int),
		crashed: make(map[string]bool),
		nodes:   make(map[string]*node),
	}
}

type linkKey struct{ from, to string }

// link is the per-direction fault state: a private splitmix64 stream and a
// send counter (both guarded by Net.mu), plus the frames waiting out an
// injected latency in interface mode.
type link struct {
	rng rng
	seq int

	mu      sync.Mutex // held across the inner Send, so deliveries keep their order
	pending []delayed
}

// delayed is a frame queued on a link behind an injected latency.
type delayed struct {
	via  transport.Node // the sender's inner endpoint
	data []byte
	dup  bool
}

func linkRNG(seed uint64, k linkKey) rng {
	h := fnv.New64a()
	h.Write([]byte(k.from))
	h.Write([]byte{'|'})
	h.Write([]byte(k.to))
	return rng{state: seed ^ h.Sum64()}
}

func (n *Net) link(from, to string) *link {
	k := linkKey{from, to}
	l, ok := n.links[k]
	if !ok {
		l = &link{rng: linkRNG(n.seed, k)}
		n.links[k] = l
	}
	return l
}

// SetSeed reseeds every link stream: existing links restart their streams
// and send counters. Frames already waiting out a latency keep their place.
func (n *Net) SetSeed(seed uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seed = seed
	for k, l := range n.links {
		l.rng, l.seq = linkRNG(seed, k), 0
	}
}

// SetLatency sets a fixed one-way delay applied to every delivery.
func (n *Net) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// SetDropRate sets the per-message drop probability, out of 1e6.
func (n *Net) SetDropRate(perMillion int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropPM = perMillion
}

// SetDupRate sets the per-message duplication probability, out of 1e6.
// A duplicated message is delivered twice back to back — the FIFO layer
// above must tolerate it (TCP itself never duplicates, but the app-level
// retransmission paths this models do).
func (n *Net) SetDupRate(perMillion int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupPM = perMillion
}

// Partition splits the endpoints into components: listed groups stay
// internally reachable, everyone else becomes a singleton.
func (n *Net) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := 1
	for name := range n.comp {
		n.comp[name] = -next
		next++
	}
	for i, g := range groups {
		for _, name := range g {
			if _, ok := n.comp[name]; ok {
				n.comp[name] = i + 1
			}
		}
	}
}

// Heal reconnects every endpoint into one component.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.comp {
		n.comp[name] = 0
	}
}

// Reachable reports whether two endpoints can currently exchange messages.
func (n *Net) Reachable(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ca, oka := n.comp[a]
	cb, okb := n.comp[b]
	return oka && okb && ca == cb && !n.crashed[a] && !n.crashed[b]
}

// Crash fail-stops an endpoint: it is detached, every message to or from
// it is dropped and, in proxy mode, its relay kills the live connections.
// The name becomes attachable again (crash-and-recover).
func (n *Net) Crash(name string) {
	n.mu.Lock()
	n.crashed[name] = true
	delete(n.comp, name)
	nd := n.nodes[name]
	delete(n.nodes, name)
	r := n.proxies[name]
	n.mu.Unlock()
	if r != nil {
		r.setUpstream("") // relay refuses traffic until re-attach
	}
	if nd != nil {
		_ = nd.inner.Close() // detach for real: queues, listener and links die
	}
}

// Trace returns a copy of the fault decisions made so far, in the order
// they were taken. With single-threaded sends the trace is byte-identical
// across runs with the same seed.
func (n *Net) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.trace...)
}

// TraceString joins the trace into one block (for golden comparisons).
func (n *Net) TraceString() string {
	var b []byte
	for _, l := range n.Trace() {
		b = append(b, l...)
		b = append(b, '\n')
	}
	return string(b)
}

// decision is the fault verdict for one message on one link.
type decision struct {
	pass    bool // proxy mode, at Send: the relays decide
	drop    bool
	dup     bool
	latency time.Duration
	link    *link
}

// decide consumes a fixed two draws from the link's stream (drop, dup) so
// the stream position depends only on the link's send count, never on the
// rates in effect — toggling a fault on and off mid-run cannot desync a
// replay. Called at Send in proxy mode, it draws nothing and returns pass.
func (n *Net) decide(from, to string, atSend bool) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	if atSend && n.proxies != nil {
		return decision{pass: true}
	}
	// Crash moves a name from comp to crashed and Attach moves it back, so
	// only a name missing from comp can be crashed.
	cf, okf := n.comp[from]
	ct, okt := n.comp[to]
	if (!okf && n.crashed[from]) || (!okt && n.crashed[to]) || cf != ct {
		return decision{drop: true}
	}
	l := n.link(from, to)
	l.seq++
	dropDraw := l.rng.next() % 1_000_000
	dupDraw := l.rng.next() % 1_000_000
	d := decision{latency: n.latency, link: l}
	if n.dropPM > 0 && dropDraw < uint64(n.dropPM) {
		d.drop = true
		n.trace = append(n.trace, fmt.Sprintf("%s->%s #%d drop", from, to, l.seq))
		return d
	}
	if n.dupPM > 0 && dupDraw < uint64(n.dupPM) {
		d.dup = true
		n.trace = append(n.trace, fmt.Sprintf("%s->%s #%d dup", from, to, l.seq))
	}
	return d
}

// Attach implements transport.Network. In interface mode the handler is
// passed through untouched and faults are applied on the send side; in
// proxy mode the endpoint's relay is (re)pointed at the freshly-attached
// listener.
func (n *Net) Attach(name string, h transport.Handler) (transport.Node, error) {
	inner, err := n.inner.Attach(name, h)
	if err != nil {
		return nil, err
	}
	nd := &node{net: n, inner: inner, name: name}
	n.mu.Lock()
	delete(n.crashed, name)
	n.comp[name] = 0
	n.nodes[name] = nd
	r := n.proxies[name]
	tcp := n.tcp
	n.mu.Unlock()
	if r != nil && tcp != nil {
		// Re-point the relay at the endpoint's real (possibly rebound)
		// listener; peers keep dialing the stable relay address.
		r.setUpstream(tcp.ListenAddr(name))
	}
	return nd, nil
}

// node wraps an attached endpoint, injecting faults at Send in interface
// mode. In proxy mode faults are applied inside the relays, so Send passes
// straight through.
type node struct {
	net   *Net
	inner transport.Node
	name  string
}

var _ transport.Node = (*node)(nil)

func (nd *node) Name() string { return nd.name }

// Close crashes the endpoint if this handle still holds its name. A stale
// handle, closed after its name was crashed and attached again, closes
// only its own inner endpoint and leaves the new one running.
func (nd *node) Close() error {
	n := nd.net
	n.mu.Lock()
	live := n.nodes[nd.name] == nd
	n.mu.Unlock()
	if live {
		n.Crash(nd.name)
	}
	return nd.inner.Close()
}

func (nd *node) Send(to string, data []byte) error {
	d := nd.net.decide(nd.name, to, true)
	switch {
	case d.pass:
		return nd.inner.Send(to, data)
	case d.drop:
		return nil
	}
	return d.link.send(nd.inner, to, data, d)
}

// send delivers one frame in link order. A frame with no latency to wait
// out goes straight through unless earlier frames are still pending; then
// it queues behind them. Every timer delivers the queue's head, not its
// own frame, so frames leave in send order whatever order the timers run.
func (l *link) send(via transport.Node, to string, data []byte, d decision) error {
	l.mu.Lock()
	if d.latency == 0 && len(l.pending) == 0 {
		defer l.mu.Unlock()
		err := via.Send(to, data)
		if d.dup {
			_ = via.Send(to, data)
		}
		return err
	}
	l.pending = append(l.pending, delayed{via: via, data: append([]byte(nil), data...), dup: d.dup})
	l.mu.Unlock()
	time.AfterFunc(d.latency, func() { l.deliverHead(to) })
	return nil
}

func (l *link) deliverHead(to string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.pending[0]
	l.pending[0] = delayed{}
	l.pending = l.pending[1:]
	_ = f.via.Send(to, f.data)
	if f.dup {
		_ = f.via.Send(to, f.data)
	}
}

// rng is splitmix64, matching internal/chaos: stable across platforms and
// Go versions.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
