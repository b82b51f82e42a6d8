package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collector accumulates received messages.
type collector struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collector) HandleMessage(from string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, from+":"+string(data))
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func (c *collector) waitFor(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := c.snapshot(); len(got) >= n {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages, have %v", n, c.snapshot())
	return nil
}

func TestMemNetworkBasicDelivery(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a", "b")
	var ca, cb collector
	a, err := net.Attach("a", &ca)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", &cb); err != nil {
		t.Fatal(err)
	}
	if a.Name() != "a" {
		t.Fatalf("Name = %s", a.Name())
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := cb.waitFor(t, 1)
	if got[0] != "a:hello" {
		t.Fatalf("got %v", got)
	}
}

func TestMemNetworkFIFOPerSender(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a", "b")
	var cb collector
	a, err := net.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("b", &cb); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.waitFor(t, n)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("a:%04d", i)
		if got[i] != want {
			t.Fatalf("position %d: got %s, want %s", i, got[i], want)
		}
	}
}

func TestMemNetworkDuplicateAttach(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a")
	net.Attach("a", HandlerFunc(func(string, []byte) {}))
	if _, err := net.Attach("a", HandlerFunc(func(string, []byte) {})); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestMemNetworkSenderBufferReuse(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a", "b")
	var cb collector
	a, _ := net.Attach("a", HandlerFunc(func(string, []byte) {}))
	net.Attach("b", &cb)
	buf := []byte("first")
	a.Send("b", buf)
	copy(buf, "XXXXX")
	got := cb.waitFor(t, 1)
	if got[0] != "a:first" {
		t.Fatalf("delivery aliased the sender's buffer: %v", got)
	}
}

func TestMemNetworkClosedSender(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a", "b")
	a, _ := net.Attach("a", HandlerFunc(func(string, []byte) {}))
	net.Attach("b", HandlerFunc(func(string, []byte) {}))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send from closed endpoint should error")
	}
}

// TestMemNetworkStaleHandle: once a name is closed and attached again, the
// old handle acts on nothing — its Send fails and its Close leaves the new
// endpoint attached and receiving.
func TestMemNetworkStaleHandle(t *testing.T) {
	leakCheck(t)
	net := NewMemNetwork()
	memCleanup(t, net, "a", "b")
	var ca, cb collector
	old, _ := net.Attach("a", HandlerFunc(func(string, []byte) {}))
	b, _ := net.Attach("b", &cb)
	old.Close()
	if _, err := net.Attach("a", &ca); err != nil {
		t.Fatalf("reattach after close: %v", err)
	}
	if err := old.Send("b", []byte("stale")); !errors.Is(err, ErrClosed) {
		t.Fatalf("stale handle Send = %v, want ErrClosed", err)
	}
	old.Close()
	b.Send("a", []byte("live"))
	if got := ca.waitFor(t, 1); got[0] != "b:live" {
		t.Fatalf("got %v", got)
	}
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("stale handle delivered: %v", got)
	}
}

func TestTCPNetworkDelivery(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	var cb collector
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := tn.Attach("b", &cb)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	// Rebind the address book with the resolved ports.
	tn.SetAddr("a", na.(*tcpNode).ListenAddr())
	tn.SetAddr("b", nb.(*tcpNode).ListenAddr())

	const n = 50
	for i := 0; i < n; i++ {
		if err := na.Send("b", []byte(fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.waitFor(t, n)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("a:%03d", i)
		if got[i] != want {
			t.Fatalf("position %d: got %s, want %s", i, got[i], want)
		}
	}
}

func TestTCPNetworkUnknownPeerDrops(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{"a": "127.0.0.1:0"})
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	if err := na.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("send to unknown peer should silently drop, got %v", err)
	}
}

func TestTCPNetworkPeerDownDrops(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:1", // nothing listens there
	})
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	if err := na.Send("b", []byte("x")); err != nil {
		t.Fatalf("send to down peer should silently drop, got %v", err)
	}
}
