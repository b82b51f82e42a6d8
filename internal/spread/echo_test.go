package spread

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAgreedBurstNotHeldForTick pins the deferred clock echo: the receivers'
// echoes for a second AGREED message that follows the first at once go out
// from the advertisement budget, or, on a short budget, when a token
// refills (at most Heartbeat/4 later); they never wait for the next
// heartbeat tick. The heartbeat is long (400 ms) so that the outcomes,
// at most ~Heartbeat/4 and tick-bound, are far apart.
func TestAgreedBurstNotHeldForTick(t *testing.T) {
	cfg := Config{Heartbeat: 400 * time.Millisecond, SuspectAfter: 10 * time.Second}
	c, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	var clients []*Client
	for i, d := range []*Daemon{c.Daemons[0], c.Daemons[0], c.Daemons[1], c.Daemons[2]} {
		cl, err := d.Connect(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	var names []string
	for _, cl := range clients {
		names = append(names, cl.Name())
	}
	for _, cl := range clients {
		waitMembers(t, cl, "g", names)
	}

	var worst time.Duration
	for trial := 0; trial < 6; trial++ {
		// Let the previous trial's advertisement tokens refill. A
		// trial held for a tick ends on one, so this wait
		// also puts the next trial 3/8 of an interval after a tick: a
		// tick-bound trial then takes 5/8 of an interval, well clear of
		// the limit below.
		time.Sleep(3 * cfg.Heartbeat / 8)
		m1 := fmt.Sprintf("m1-%d", trial)
		m2 := fmt.Sprintf("m2-%d", trial)
		start := time.Now()
		if err := clients[0].Multicast(Agreed, "g", []byte(m1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if err := clients[1].Multicast(Agreed, "g", []byte(m2)); err != nil {
			t.Fatal(err)
		}
		for _, cl := range clients {
			if got := string(nextData(t, cl, "g").Data); got != m1 {
				t.Fatalf("%s: first delivery %q, want %q", cl.Name(), got, m1)
			}
			if got := string(nextData(t, cl, "g").Data); got != m2 {
				t.Fatalf("%s: second delivery %q, want %q", cl.Name(), got, m2)
			}
		}
		took := time.Since(start)
		t.Logf("trial %d: all clients hold m2 after %v", trial, took)
		worst = max(worst, took)
	}
	if limit := cfg.Heartbeat/4 + 100*time.Millisecond; worst >= limit {
		t.Fatalf("worst burst delivery %v, want < %v: an echo waited for a heartbeat tick", worst, limit)
	}
}

// TestEchoSpacingUnderStream is the echo budget under load: under a steady
// AGREED stream the sending daemon's own data frames carry its clock, so it
// sends nothing beyond its ticks, and a receiving daemon's ticks and echoes
// together stay within the advertisement budget (advBurst, then
// advPerHeartbeat per Heartbeat). The bound checked is the older, looser
// one: a tick per Heartbeat plus an echo per Heartbeat/4.
func TestEchoSpacingUnderStream(t *testing.T) {
	cfg := Config{Heartbeat: 20 * time.Millisecond, SuspectAfter: 2 * time.Second}
	c, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	sender, err := c.Daemons[0].Connect("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, sender, "g", []string{sender.Name()})
	// The sender receives its own multicasts; drain them so its event
	// queue never overflows.
	go func() {
		for {
			if _, err := sender.Receive(5 * time.Second); err != nil {
				return
			}
		}
	}()

	hbName := obs.LabelName("spread_wire_sent_msgs", kindName(kindHeartbeat))
	sent := func() []int64 {
		out := make([]int64, len(c.Daemons))
		for i, d := range c.Daemons {
			out[i] = d.Obs().Reg.Counter(hbName).Value()
		}
		return out
	}

	start := time.Now()
	before := sent()
	for time.Since(start) < time.Second {
		if err := sender.Multicast(Agreed, "g", []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	// Let the last echoes out before the final read.
	time.Sleep(cfg.Heartbeat / 2)
	after := sent()
	elapsed := time.Since(start)

	peers := int64(len(c.Daemons) - 1) // frames per heartbeat round
	ticks := int64(elapsed/cfg.Heartbeat) + 1
	budget := int64(elapsed/(cfg.Heartbeat/4)) + int64(elapsed/cfg.Heartbeat) + 2
	for i, d := range c.Daemons {
		rounds := (after[i] - before[i]) / peers
		t.Logf("%s: %d heartbeat rounds in %v (ticks <= %d)", d.Name(), rounds, elapsed, ticks)
		if i == 0 && rounds > ticks+1 {
			t.Errorf("sending daemon %s sent %d heartbeat rounds, want <= %d: own broadcasts must not echo",
				d.Name(), rounds, ticks+1)
		}
		if rounds > budget {
			t.Errorf("%s sent %d heartbeat rounds, want <= %d: echoes must keep the Heartbeat/4 spacing",
				d.Name(), rounds, budget)
		}
	}
	// A receiver sees data every ~millisecond, so the budget binds.
	if n := c.Daemons[1].Obs().Reg.Counter("spread_echo_deferred").Value(); n == 0 {
		t.Error("spread_echo_deferred is 0 on a receiving daemon under a steady stream")
	}
}

// TestEchoBurstAfterQuiet is the other side of the echo budget: after a
// quiet Heartbeat, a short AGREED burst from two daemons, the shape of a
// rekey's rounds, gets every echo it needs at once. It reads counters, not
// the clock: spread_echo_deferred must not move on any daemon.
func TestEchoBurstAfterQuiet(t *testing.T) {
	cfg := Config{Heartbeat: 400 * time.Millisecond, SuspectAfter: 10 * time.Second}
	c, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	var clients []*Client
	var names []string
	for i, d := range c.Daemons {
		cl, err := d.Connect(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		names = append(names, cl.Name())
	}
	for _, cl := range clients {
		waitMembers(t, cl, "g", names)
	}

	deferred := func() []int64 {
		out := make([]int64, len(c.Daemons))
		for i, d := range c.Daemons {
			out[i] = d.Obs().Reg.Counter("spread_echo_deferred").Value()
		}
		return out
	}
	time.Sleep(cfg.Heartbeat)
	before := deferred()
	var sent []string
	for i := 0; i < 4; i++ {
		m := fmt.Sprintf("m%d", i)
		if err := clients[i%2].Multicast(Agreed, "g", []byte(m)); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, m)
		time.Sleep(time.Millisecond)
	}
	var order []string
	for i, cl := range clients {
		var got []string
		for range sent {
			got = append(got, string(nextData(t, cl, "g").Data))
		}
		if i == 0 {
			order = got
		} else if !slices.Equal(got, order) {
			t.Fatalf("%s delivered %v, %s delivered %v", cl.Name(), got, clients[0].Name(), order)
		}
	}
	after := deferred()
	for i, d := range c.Daemons {
		if n := after[i] - before[i]; n != 0 {
			t.Errorf("%s deferred %d echoes of a 4-message burst after a quiet heartbeat, want 0", d.Name(), n)
		}
	}
}
