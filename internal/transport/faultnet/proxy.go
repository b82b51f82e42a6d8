package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

// NewTCPProxy builds a proxy-mode Net over a TCP transport: every endpoint
// in names gets a frame-aware localhost relay with a stable address. Peers
// dial the relay (the dial book is re-pointed at it), the relay dials the
// endpoint's real listener, and every frame crossing it is subject to the
// seeded fault decisions — so drops, partitions, crashes, and resets
// happen on real kernel sockets, exercising the transport's redial
// supervisor exactly as a flaky network would.
//
// The relay address survives endpoint crash and re-attach: a recovered
// daemon binds a fresh real port, the relay re-targets it, and peers keep
// dialing the address they always knew.
func NewTCPProxy(tn *transport.TCPNetwork, names []string, seed uint64) (*Net, error) {
	n := New(tn, seed)
	n.tcp = tn
	n.proxies = make(map[string]*relay)
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("faultnet: relay listen for %s: %w", name, err)
		}
		r := &relay{net: n, name: name, addr: ln.Addr().String(), ln: ln,
			pairs: make(map[*pair]struct{}), byPeer: make(map[string]*pair)}
		n.proxies[name] = r
		tn.SetListenAddr(name, "127.0.0.1:0") // the endpoint binds its own ephemeral port
		tn.SetAddr(name, r.addr)              // peers dial the relay
		go r.accept(ln)
	}
	return n, nil
}

// Reset injects a connection reset on the a<->b link: in proxy mode the
// relays close the live sockets mid-stream in both directions, so the
// sending supervisors observe a hard write error and must re-dial. In
// interface mode there is no socket to reset; the event is traced and
// otherwise a no-op.
func (n *Net) Reset(a, b string) {
	n.mu.Lock()
	n.resetGen++
	n.trace = append(n.trace, fmt.Sprintf("reset %s<->%s #%d", a, b, n.resetGen))
	ra, rb := n.proxies[a], n.proxies[b]
	n.mu.Unlock()
	if rb != nil {
		rb.kill(a)
	}
	if ra != nil {
		ra.kill(b)
	}
}

// ProxyAddr returns the stable relay address for an endpoint ("" in
// interface mode).
func (n *Net) ProxyAddr(name string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if r := n.proxies[name]; r != nil {
		return r.addr
	}
	return ""
}

// Close tears down every relay (listener and live connections). Interface
// mode has nothing to tear down.
func (n *Net) Close() {
	n.mu.Lock()
	relays := make([]*relay, 0, len(n.proxies))
	for _, r := range n.proxies {
		relays = append(relays, r)
	}
	n.mu.Unlock()
	for _, r := range relays {
		r.close()
	}
}

// relay fronts one endpoint: it accepts connections from peers' send
// supervisors and forwards frames to the endpoint's real listener,
// applying fault decisions per frame.
type relay struct {
	net  *Net
	name string // the endpoint this relay fronts (destination of its traffic)
	addr string // stable advertised address, kept across crash/recover

	mu       sync.Mutex
	ln       net.Listener // nil while the endpoint is crashed
	upstream string
	pairs    map[*pair]struct{}
	byPeer   map[string]*pair // live pair per sending peer, once identified
	closed   bool
}

// pair is one proxied connection: the inbound socket from a peer and the
// outbound socket to the real endpoint.
type pair struct {
	in, out net.Conn
	once    sync.Once
}

func (p *pair) close() {
	p.once.Do(func() {
		_ = p.in.Close()
		_ = p.out.Close()
	})
}

func (r *relay) accept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go r.serve(c)
	}
}

// setUpstream re-targets the relay. Any live connections are killed: the
// old upstream is gone. "" marks the endpoint crashed — the relay also
// drops its listener, so peers get real connection-refused errors (and
// their supervisors report the peer down) instead of connections that
// accept and instantly die. A later non-"" upstream re-listens on the
// stable address.
func (r *relay) setUpstream(addr string) {
	r.mu.Lock()
	r.upstream = addr
	pairs := make([]*pair, 0, len(r.pairs))
	for p := range r.pairs {
		pairs = append(pairs, p)
	}
	var dead net.Listener
	if addr == "" {
		dead, r.ln = r.ln, nil
	}
	needListen := addr != "" && r.ln == nil && !r.closed
	r.mu.Unlock()
	for _, p := range pairs {
		p.close()
	}
	if dead != nil {
		_ = dead.Close()
	}
	if needListen {
		r.relisten()
	}
}

// relisten rebinds the stable relay address after a crash. The port was
// ours moments ago, so a short retry loop covers the kernel releasing it;
// if another process truly stole it, fall back to a fresh port and publish
// it — peers re-read the dial book on every dial attempt, so they recover.
func (r *relay) relisten() {
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return
		}
		r.net.tcp.SetAddr(r.name, ln.Addr().String())
	}
	r.mu.Lock()
	if r.closed || r.upstream == "" {
		r.mu.Unlock()
		_ = ln.Close()
		return
	}
	r.ln = ln
	r.mu.Unlock()
	go r.accept(ln)
}

// kill resets the live connection from the named peer, if any.
func (r *relay) kill(peer string) {
	r.mu.Lock()
	p := r.byPeer[peer]
	r.mu.Unlock()
	if p != nil {
		p.close()
	}
}

func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	pairs := make([]*pair, 0, len(r.pairs))
	for p := range r.pairs {
		pairs = append(pairs, p)
	}
	ln := r.ln
	r.ln = nil
	r.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, p := range pairs {
		p.close()
	}
}

func (r *relay) track(p *pair) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.upstream == "" {
		return false
	}
	r.pairs[p] = struct{}{}
	return true
}

func (r *relay) untrack(p *pair, peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.pairs, p)
	if peer != "" && r.byPeer[peer] == p {
		delete(r.byPeer, peer)
	}
}

// serve relays one peer connection: read a frame, consult the link's fault
// stream, forward (or drop, duplicate, delay) on the upstream socket. Any
// socket error tears both sides down — the peer's supervisor sees a dead
// connection and re-dials the relay, which dials a fresh upstream.
func (r *relay) serve(in net.Conn) {
	r.mu.Lock()
	up := r.upstream
	r.mu.Unlock()
	if up == "" {
		_ = in.Close()
		return
	}
	out, err := net.DialTimeout("tcp", up, 2*time.Second)
	if err != nil {
		_ = in.Close()
		return
	}
	p := &pair{in: in, out: out}
	if !r.track(p) {
		p.close()
		return
	}
	peer := ""
	defer func() {
		p.close()
		r.untrack(p, peer)
	}()
	// Read like the transport's own read loop; faults are still decided,
	// and latency slept, one frame at a time.
	rd := transport.NewFrameReader(in)
	var buf []byte
	for {
		from, data, err := transport.ReadFrame(rd)
		if err != nil {
			return
		}
		if peer == "" {
			peer = from
			r.mu.Lock()
			r.byPeer[peer] = p
			r.mu.Unlock()
		}
		d := r.net.decide(from, r.name, false)
		if d.drop {
			continue
		}
		if d.latency > 0 {
			// In-line sleep: delays this link only and preserves FIFO.
			time.Sleep(d.latency)
		}
		buf, err = transport.AppendFrame(buf[:0], from, data)
		if err != nil {
			continue
		}
		if _, err := p.out.Write(buf); err != nil {
			return
		}
		if d.dup {
			if _, err := p.out.Write(buf); err != nil {
				return
			}
		}
	}
}
