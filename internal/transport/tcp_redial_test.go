package transport

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fastTuning keeps supervisor tests snappy: quick dials, quick backoff.
func fastTuning() TCPTuning {
	return TCPTuning{
		DialTimeout:  500 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DownAfter:    2,
		QueueFrames:  256,
		QueueBytes:   1 << 20,
	}
}

// TestTCPRedialAfterAcceptSideRestart kills the accept side mid-stream and
// asserts the supervisor re-dials: sends after the restart are delivered,
// and every delivered frame is intact and in order (a batch lost to the
// write error leaves no partial frame in the queue or on the new stream).
func TestTCPRedialAfterAcceptSideRestart(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	tn.SetTuning(fastTuning())
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	var cb collector
	nb, err := tn.Attach("b", &cb)
	if err != nil {
		t.Fatal(err)
	}

	if err := na.Send("b", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1)

	// Kill the accept side mid-stream. a's established connection dies.
	if err := nb.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart b on the same address (the dial book still points there).
	var cb2 collector
	var nb2 Node
	for attempt := 0; ; attempt++ {
		nb2, err = tn.Attach("b", &cb2)
		if err == nil {
			break
		}
		if attempt > 50 {
			t.Fatalf("rebind %s: %v", tn.Addr("b"), err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer nb2.Close()

	// Keep probing until the supervisor's redial lands; frames sent while
	// the link was down may be lost (drop-on-unreachable is the contract).
	deadline := time.Now().Add(5 * time.Second)
	for len(cb2.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame delivered after accept-side restart: redial never happened")
		}
		if err := na.Send("b", []byte("probe")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Now the link is up: a numbered burst must arrive complete, intact and
	// in order.
	const n = 50
	for i := 0; i < n; i++ {
		if err := na.Send("b", []byte(fmt.Sprintf("seq-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var burst []string
	deadline = time.Now().Add(5 * time.Second)
	for {
		burst = burst[:0]
		for _, m := range cb2.snapshot() {
			if strings.HasPrefix(m, "a:seq-") {
				burst = append(burst, m)
			}
		}
		if len(burst) >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst incomplete after redial: %d/%d", len(burst), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, m := range burst {
		if want := fmt.Sprintf("a:seq-%03d", i); m != want {
			t.Fatalf("frame %d corrupted or reordered after redial: got %q want %q", i, m, want)
		}
	}
}

// TestTCPSendQueueDropOldest pins the degradation rule: with the peer down,
// the bounded queue evicts the oldest frames, counts every drop, and keeps
// exactly the newest QueueFrames entries.
func TestTCPSendQueueDropOldest(t *testing.T) {
	leakCheck(t)
	reg := obs.NewRegistry()
	tun := fastTuning()
	tun.QueueFrames = 8
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:1", // nothing listens there: every dial fails
	})
	tn.SetTuning(tun)
	h := &watchHandler{reg: reg}
	na, err := tn.Attach("a", h)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := na.Send("b", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drops happen synchronously in Send (the supervisor never drains a
	// dead link), so the counter and queue state are already settled.
	if got := reg.Counter("transport_sendq_dropped").Value(); got != n-8 {
		t.Fatalf("transport_sendq_dropped = %d, want %d", got, n-8)
	}
	p := na.(*tcpNode).peer("b")
	p.mu.Lock()
	var kept []string
	for _, f := range p.q {
		_, data, err := ReadFrame(strings.NewReader(string(f)))
		if err != nil {
			p.mu.Unlock()
			t.Fatalf("queued frame corrupt: %v", err)
		}
		kept = append(kept, string(data))
	}
	p.mu.Unlock()
	if len(kept) != 8 {
		t.Fatalf("queue holds %d frames, want 8", len(kept))
	}
	for i, d := range kept {
		if want := strconv.Itoa(n - 8 + i); d != want {
			t.Fatalf("queue[%d] = %q, want %q (oldest frames must go first)", i, d, want)
		}
	}
}

// watchHandler records peer transitions and exposes a private registry.
type watchHandler struct {
	reg *obs.Registry

	mu     sync.Mutex
	events []string
}

func (h *watchHandler) HandleMessage(from string, data []byte) {}

func (h *watchHandler) ObsRegistry() *obs.Registry { return h.reg }

func (h *watchHandler) PeerUp(peer string)   { h.record("up:" + peer) }
func (h *watchHandler) PeerDown(peer string) { h.record("down:" + peer) }

func (h *watchHandler) record(ev string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events = append(h.events, ev)
}

func (h *watchHandler) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.events...)
}

func (h *watchHandler) waitEvents(t *testing.T, want ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := h.snapshot()
		if len(got) >= len(want) {
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("event %d = %q, want %q (all: %v)", i, got[i], w, got)
				}
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for events %v, have %v", want, h.snapshot())
}

// TestTCPPeerDownUpEvents drives the supervisor state machine through
// down -> up: DownAfter consecutive dial failures report the peer down
// exactly once; the next successful dial reports it up.
func TestTCPPeerDownUpEvents(t *testing.T) {
	leakCheck(t)
	// Reserve a port, then free it so dials fail until b actually listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := ln.Addr().String()
	ln.Close()

	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": baddr,
	})
	tn.SetTuning(fastTuning())
	h := &watchHandler{reg: obs.NewRegistry()}
	na, err := tn.Attach("a", h)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()

	if err := na.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.waitEvents(t, "down:b")

	// Bring b up on the reserved address; the supervisor's next dial lands.
	var cb collector
	nb, err := tn.Attach("b", &cb)
	if err != nil {
		t.Fatalf("listen on reserved addr %s: %v", baddr, err)
	}
	defer nb.Close()
	h.waitEvents(t, "down:b", "up:b")

	if got := h.reg.Counter("transport_peer_down").Value(); got != 1 {
		t.Fatalf("transport_peer_down = %d, want 1 (transitions only, no flapping)", got)
	}
	if got := h.reg.Counter("transport_peer_up").Value(); got != 1 {
		t.Fatalf("transport_peer_up = %d, want 1", got)
	}
	if got := h.reg.Counter("transport_dial_failures").Value(); got < 2 {
		t.Fatalf("transport_dial_failures = %d, want >= DownAfter", got)
	}
}

// TestTCPCloseReapsBlockedSupervisor: closing a node whose supervisor is
// mid-backoff against a dead peer must terminate the supervisor goroutine
// (leakCheck enforces it) and fail further sends.
func TestTCPCloseReapsBlockedSupervisor(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:1",
	})
	tn.SetTuning(fastTuning())
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := na.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the supervisor enter its dial/backoff loop
	if err := na.Close(); err != nil {
		t.Fatal(err)
	}
	if err := na.Send("b", []byte("y")); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}
