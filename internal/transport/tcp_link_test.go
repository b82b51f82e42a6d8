package transport

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPIdleLinkRoundTrip pins write-through on an idle link: a lone frame
// leaves its supervisor as soon as it is queued, with no batching timer, so
// a loopback ping-pong round trip costs socket and scheduling time only.
// A per-direction hold of even 250 µs would put the median over the bound.
func TestTCPIdleLinkRoundTrip(t *testing.T) {
	leakCheck(t)
	tn := NewTCPNetwork(map[string]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	tn.SetTuning(fastTuning())
	pong := make(chan struct{}, 1)
	na, err := tn.Attach("a", HandlerFunc(func(string, []byte) {
		select {
		case pong <- struct{}{}:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	// b echoes every frame back. The handle is published atomically: the
	// only path from this goroutine to b's read loop runs through a socket,
	// which the race detector does not see as a synchronization edge.
	var echo atomic.Pointer[Node]
	nb, err := tn.Attach("b", HandlerFunc(func(from string, data []byte) {
		_ = (*echo.Load()).Send(from, data) // fails only once b is closed, at teardown
	}))
	if err != nil {
		t.Fatal(err)
	}
	echo.Store(&nb)
	defer nb.Close()

	roundTrip := func() time.Duration {
		start := time.Now()
		if err := na.Send("b", []byte("ping")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			t.Fatal("no pong within 5s")
		}
		return time.Since(start)
	}
	for range 10 {
		roundTrip() // dial both directions before measuring
	}
	const rounds = 200
	rtts := make([]time.Duration, rounds)
	for i := range rtts {
		rtts[i] = roundTrip()
	}
	slices.Sort(rtts)
	if p50 := rtts[rounds/2]; p50 >= 500*time.Microsecond {
		t.Fatalf("idle-link round trip p50 = %v, want < 500µs (p90 %v): a lone frame is being held before its write",
			p50, rtts[rounds*9/10])
	}
}
