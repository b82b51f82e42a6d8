package faultnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// leakCheck mirrors the transport package's goroutine-leak guard.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		after := 0
		for time.Now().Before(deadline) {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
	})
}

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
	return append([]string(nil), c.msgs...)
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

func (c *collector) waitSettled() []string {
	for {
		before := len(c.snapshot())
		time.Sleep(2 * time.Millisecond)
		if len(c.snapshot()) == before {
			return c.snapshot()
		}
	}
}

// faultTrace replays a fixed single-threaded send sequence over an
// interface-mode wrap of MemNetwork and returns the fault trace.
func faultTrace(t *testing.T, seed uint64, sends int) string {
	t.Helper()
	fn := New(transport.NewMemNetwork(), seed)
	fn.SetDropRate(300_000)
	fn.SetDupRate(100_000)
	var cb collector
	na, err := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Attach("b", &cb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fn.Crash("a"); fn.Crash("b") })
	for i := 0; i < sends; i++ {
		if err := na.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cb.waitSettled()
	return fn.TraceString()
}

// TestFaultnetSeededDeterminism is the replay contract (same guarantee PR 2
// pinned for the schedule generator): the same seed yields the
// byte-identical fault trace, and a different seed diverges.
func TestFaultnetSeededDeterminism(t *testing.T) {
	leakCheck(t)
	const sends = 256
	t1 := faultTrace(t, 42, sends)
	t2 := faultTrace(t, 42, sends)
	if t1 != t2 {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	if t1 == "" {
		t.Fatal("256 sends at 30%% drop produced no fault decisions")
	}
	t3 := faultTrace(t, 43, sends)
	if t1 == t3 {
		t.Fatal("different seeds produced the identical fault trace")
	}
}

// TestFaultnetPerLinkStreamsIndependent: the a->b decision stream must not
// shift when unrelated links carry traffic — per-link streams make replays
// independent of cross-link interleaving.
func TestFaultnetPerLinkStreamsIndependent(t *testing.T) {
	leakCheck(t)
	run := func(withNoise bool) string {
		fn := New(transport.NewMemNetwork(), 7)
		fn.SetDropRate(400_000)
		var cb, cc collector
		na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
		fn.Attach("b", &cb)
		fn.Attach("c", &cc)
		t.Cleanup(func() { fn.Crash("a"); fn.Crash("b"); fn.Crash("c") })
		for i := 0; i < 64; i++ {
			if withNoise {
				na.Send("c", []byte("noise"))
			}
			na.Send("b", []byte{byte(i)})
		}
		cb.waitSettled()
		var ab []string
		for _, l := range fn.Trace() {
			if strings.HasPrefix(l, "a->b") {
				ab = append(ab, l)
			}
		}
		return strings.Join(ab, "\n")
	}
	quiet := run(false)
	noisy := run(true)
	if quiet != noisy {
		t.Fatalf("a->b stream shifted under unrelated traffic:\n--- quiet ---\n%s\n--- noisy ---\n%s", quiet, noisy)
	}
}

// TestFaultnetPartitionAndCrash covers the interface-mode fault surface:
// partition and heal, crash and recover.
func TestFaultnetPartitionAndCrash(t *testing.T) {
	leakCheck(t)
	fn := New(transport.NewMemNetwork(), 1)
	var cb collector
	na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	fn.Attach("b", &cb)
	t.Cleanup(func() { fn.Crash("a"); fn.Crash("b") })

	fn.Partition([]string{"a"}, []string{"b"})
	if fn.Reachable("a", "b") {
		t.Fatal("partitioned endpoints report reachable")
	}
	na.Send("b", []byte("lost"))
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("message crossed a partition: %v", got)
	}
	fn.Heal()
	if !fn.Reachable("a", "b") {
		t.Fatal("healed endpoints report unreachable")
	}
	na.Send("b", []byte("through"))
	if got := cb.waitFor(t, 1); got[0] != "a:through" {
		t.Fatalf("got %v", got)
	}

	fn.Crash("b")
	na.Send("b", []byte("dead"))
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 1 {
		t.Fatalf("message reached a crashed endpoint: %v", got)
	}
	// Crash-and-recover: re-attach under the same name.
	var cb2 collector
	if _, err := fn.Attach("b", &cb2); err != nil {
		t.Fatalf("reattach after crash: %v", err)
	}
	na.Send("b", []byte("back"))
	if got := cb2.waitFor(t, 1); got[0] != "a:back" {
		t.Fatalf("got %v", got)
	}
}

// TestFaultnetUnlistedEndpointsAreSingletons: an endpoint left out of every
// partition group is isolated from the rest, yet still reaches itself.
func TestFaultnetUnlistedEndpointsAreSingletons(t *testing.T) {
	leakCheck(t)
	fn := New(transport.NewMemNetwork(), 1)
	var cb collector
	na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	fn.Attach("b", transport.HandlerFunc(func(string, []byte) {}))
	nc, _ := fn.Attach("c", &cb)
	t.Cleanup(func() { fn.Crash("a"); fn.Crash("b"); fn.Crash("c") })

	fn.Partition([]string{"a", "b"})
	if !fn.Reachable("a", "b") {
		t.Fatal("grouped endpoints unreachable")
	}
	if fn.Reachable("a", "c") || fn.Reachable("b", "c") {
		t.Fatal("unlisted endpoint should be isolated")
	}
	if !fn.Reachable("c", "c") {
		t.Fatal("endpoint should reach itself")
	}
	na.Send("c", []byte("cut"))
	nc.Send("c", []byte("self"))
	if got := cb.waitFor(t, 1); got[0] != "c:self" {
		t.Fatalf("got %v", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 1 {
		t.Fatalf("message reached an unlisted endpoint: %v", got)
	}
}

// TestFaultnetDropRate: a drop rate of one million per million delivers
// nothing, and setting it back to zero delivers again.
func TestFaultnetDropRate(t *testing.T) {
	leakCheck(t)
	fn := New(transport.NewMemNetwork(), 1)
	var cb collector
	na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	fn.Attach("b", &cb)
	t.Cleanup(func() { fn.Crash("a"); fn.Crash("b") })

	fn.SetDropRate(1_000_000) // drop everything
	for i := 0; i < 50; i++ {
		na.Send("b", []byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("full drop rate still delivered: %v", got)
	}
	fn.SetDropRate(0)
	na.Send("b", []byte("y"))
	if got := cb.waitFor(t, 1); got[0] != "a:y" {
		t.Fatalf("got %v", got)
	}
}

// TestFaultnetStaleHandle: after a crash and re-attach under the same
// name, the crashed incarnation's handle acts on nothing — its Send fails
// and its Close leaves the new incarnation attached and receiving.
func TestFaultnetStaleHandle(t *testing.T) {
	leakCheck(t)
	fn := New(transport.NewMemNetwork(), 1)
	var cb, cb2 collector
	na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	old, _ := fn.Attach("b", &cb)
	t.Cleanup(func() { fn.Crash("a"); fn.Crash("b") })

	fn.Crash("b")
	nb, err := fn.Attach("b", &cb2)
	if err != nil {
		t.Fatalf("reattach after crash: %v", err)
	}
	if err := old.Send("a", []byte("stale")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("stale handle Send = %v, want ErrClosed", err)
	}
	old.Close()
	na.Send("b", []byte("live"))
	if got := cb2.waitFor(t, 1); got[0] != "a:live" {
		t.Fatalf("got %v", got)
	}
	if !fn.Reachable("a", "b") {
		t.Fatal("stale Close crashed the new incarnation")
	}
	if err := nb.Send("a", []byte("x")); err != nil {
		t.Fatalf("new incarnation cannot send: %v", err)
	}
	if got := cb.snapshot(); len(got) != 0 {
		t.Fatalf("crashed incarnation received: %v", got)
	}
}

// TestFaultnetLatencyFIFO: an injected latency delays every frame by at
// least that much and never reorders a link, including frames sent after
// SetLatency(0) while delayed ones are still pending, and with duplication
// on (a duplicate arrives right behind its original).
func TestFaultnetLatencyFIFO(t *testing.T) {
	leakCheck(t)
	const frames = 10_000
	for _, dupPM := range []int{0, 200_000} {
		fn := New(transport.NewMemNetwork(), 11)
		var mu sync.Mutex
		var seqs []uint32
		na, _ := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
		nb, _ := fn.Attach("b", transport.HandlerFunc(func(_ string, data []byte) {
			mu.Lock()
			seqs = append(seqs, binary.BigEndian.Uint32(data))
			mu.Unlock()
		}))
		received := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(seqs)
		}
		waitFor := func(n int) {
			deadline := time.Now().Add(10 * time.Second)
			for received() < n {
				if time.Now().After(deadline) {
					t.Fatalf("dup %d: %d of %d frames arrived", dupPM, received(), n)
				}
				time.Sleep(time.Millisecond)
			}
		}
		fn.SetDupRate(dupPM)

		// Frame 0 alone, to time it: no sooner than the latency.
		fn.SetLatency(30 * time.Millisecond)
		start := time.Now()
		na.Send("b", binary.BigEndian.AppendUint32(nil, 0))
		waitFor(1)
		if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
			t.Fatalf("latency not applied: delivered in %v", elapsed)
		}

		fn.SetLatency(time.Millisecond)
		for i := 1; i < frames; i++ {
			if i == frames/2 {
				fn.SetLatency(0)
			}
			na.Send("b", binary.BigEndian.AppendUint32(nil, uint32(i)))
		}
		waitFor(frames + strings.Count(fn.TraceString(), " dup\n"))
		na.Close()
		nb.Close()

		mu.Lock()
		got := append([]uint32(nil), seqs...)
		mu.Unlock()
		if got[0] != 0 {
			t.Fatalf("dup %d: first frame %d", dupPM, got[0])
		}
		next := uint32(1)
		for i := 1; i < len(got); i++ {
			switch {
			case got[i] == next:
				next++
			case dupPM > 0 && got[i] == got[i-1] && (i < 2 || got[i-2] != got[i]):
			default:
				t.Fatalf("dup %d: position %d got frame %d after %d, want %d", dupPM, i, got[i], got[i-1], next)
			}
		}
		if next != frames {
			t.Fatalf("dup %d: %d of %d frames arrived", dupPM, next, frames)
		}
	}
}

// proxyPair builds a proxy-mode faultnet over a real TCP transport with
// endpoints a and b attached.
func proxyPair(t *testing.T, seed uint64) (*Net, transport.Node, *collector) {
	t.Helper()
	tn := transport.NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	tn.SetTuning(transport.TCPTuning{
		DialTimeout:  500 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
	})
	fn, err := NewTCPProxy(tn, []string{"a", "b"}, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fn.Close)
	na, err := fn.Attach("a", transport.HandlerFunc(func(string, []byte) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close() })
	var cb collector
	nb, err := fn.Attach("b", &cb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })
	return fn, na, &cb
}

// TestProxyDelivery: frames cross the relay intact and in order, and the
// dial book really points at the relay (the fault path is in the loop).
func TestProxyDelivery(t *testing.T) {
	leakCheck(t)
	fn, na, cb := proxyPair(t, 5)
	if fn.ProxyAddr("b") == "" {
		t.Fatal("no relay address for b")
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := na.Send("b", []byte(fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := cb.waitFor(t, n)
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("a:%03d", i); got[i] != want {
			t.Fatalf("position %d: got %s, want %s", i, got[i], want)
		}
	}
}

// TestProxyReset: a link reset closes the live sockets mid-stream; the
// supervisor re-dials and later frames still arrive intact.
func TestProxyReset(t *testing.T) {
	leakCheck(t)
	fn, na, cb := proxyPair(t, 6)
	if err := na.Send("b", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1)

	fn.Reset("a", "b")

	// Frames racing the reset may be lost; keep probing until the link is
	// re-established, then verify an ordered burst.
	deadline := time.Now().Add(5 * time.Second)
	for {
		na.Send("b", []byte("probe"))
		time.Sleep(5 * time.Millisecond)
		if len(cb.snapshot()) > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never recovered from reset")
		}
	}
	var burst []string
	for i := 0; i < 20; i++ {
		na.Send("b", []byte(fmt.Sprintf("post-%02d", i)))
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		burst = burst[:0]
		for _, m := range cb.snapshot() {
			if strings.HasPrefix(m, "a:post-") {
				burst = append(burst, m)
			}
		}
		if len(burst) >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-reset burst incomplete: %d/20", len(burst))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, m := range burst {
		if want := fmt.Sprintf("a:post-%02d", i); m != want {
			t.Fatalf("frame %d corrupted after reset: got %q want %q", i, m, want)
		}
	}
	if !strings.Contains(fn.TraceString(), "reset a<->b") {
		t.Fatalf("reset not traced: %q", fn.TraceString())
	}
}

// TestProxyCrashRecoverStableAddr: a crashed endpoint's relay address
// survives; after re-attach (new real port) peers deliver again without any
// dial-book change.
func TestProxyCrashRecoverStableAddr(t *testing.T) {
	leakCheck(t)
	fn, na, cb := proxyPair(t, 9)
	if err := na.Send("b", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1)
	relayAddr := fn.ProxyAddr("b")

	fn.Crash("b")
	na.Send("b", []byte("lost"))
	time.Sleep(30 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 1 {
		t.Fatalf("frame reached a crashed endpoint: %v", got)
	}

	var cb2 collector
	nb2, err := fn.Attach("b", &cb2)
	if err != nil {
		t.Fatalf("reattach after crash: %v", err)
	}
	t.Cleanup(func() { nb2.Close() })
	if got := fn.ProxyAddr("b"); got != relayAddr {
		t.Fatalf("relay address changed across crash: %s -> %s", relayAddr, got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(cb2.snapshot()) == 0 {
		na.Send("b", []byte("back"))
		time.Sleep(5 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatal("recovered endpoint never received traffic")
		}
	}
}

// TestProxyPartition: partitions drop frames at the relay (on a live
// socket), and healing restores delivery.
func TestProxyPartition(t *testing.T) {
	leakCheck(t)
	fn, na, cb := proxyPair(t, 8)
	if err := na.Send("b", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	cb.waitFor(t, 1)

	fn.Partition([]string{"a"}, []string{"b"})
	na.Send("b", []byte("cut"))
	time.Sleep(30 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 1 {
		t.Fatalf("frame crossed a partition: %v", got)
	}

	fn.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		na.Send("b", []byte("healed"))
		time.Sleep(5 * time.Millisecond)
		snap := cb.snapshot()
		if len(snap) > 1 && strings.Contains(strings.Join(snap, " "), "a:healed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after heal")
		}
	}
}
