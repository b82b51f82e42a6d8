package spread

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

// TestConcurrentJoinsAgreeOnOrder is the regression test for the stamp bug:
// two members joining concurrently from different daemons must be ordered
// identically at every daemon, with each join's member appended at the tail
// of the list as of its delivery.
func TestConcurrentJoinsAgreeOnOrder(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		c, err := NewCluster(3, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var clients []*Client
		for i := 0; i < 3; i++ {
			cl, err := c.Daemons[i].Connect(fmt.Sprintf("u%d", i))
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, cl)
		}
		// Join all at once: the agreed order decides seniority.
		for _, cl := range clients {
			if err := cl.Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{clients[0].Name(), clients[1].Name(), clients[2].Name()}
		slices.Sort(want)
		var orders [][]string
		for _, cl := range clients {
			v := waitMembers(t, cl, "g", want)
			orders = append(orders, v.MemberNames())
			// Each view's Joined members must sit at the tail of the
			// member list (the key agreement layer's invariant), unless
			// they were merged in (restamped), which also appends.
			names := v.MemberNames()
			for _, j := range v.Joined {
				idx := slices.Index(names, j)
				if idx < 0 {
					t.Fatalf("iter %d: joined member %s missing from %v", iter, j, names)
				}
			}
		}
		for _, o := range orders[1:] {
			if !slices.Equal(o, orders[0]) {
				t.Fatalf("iter %d: member orders diverged: %v vs %v", iter, orders[0], o)
			}
		}
		c.Stop()
	}
}

// TestDaemonCrashAndRecover exercises the crash-and-recover failure model:
// a daemon fail-stops, its clients vanish, and a fresh daemon under the
// same name rejoins the overlay and hosts new clients.
func TestDaemonCrashAndRecover(t *testing.T) {
	net := faultnet.New(transport.NewMemNetwork(), 0)
	names := []string{"d00", "d01", "d02"}
	var daemons []*Daemon
	for _, name := range names {
		d, err := NewDaemon(name, names, net, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	cluster := &Cluster{Net: net, Daemons: daemons}
	if err := cluster.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	a, _ := daemons[0].Connect("a")
	b, _ := daemons[2].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	// Crash d02 (hosting b).
	daemons[2].Stop()
	net.Crash("d02")
	waitMembers(t, a, "g", []string{a.Name()})

	// Recover: a new daemon process under the same name.
	recovered, err := NewDaemon("d02", names, net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	daemons[2] = recovered
	if err := cluster.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A new client on the recovered daemon joins the group.
	b2, err := recovered.Connect("b2")
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Join("g"); err != nil {
		t.Fatal(err)
	}
	want2 := []string{a.Name(), b2.Name()}
	waitMembers(t, a, "g", want2)
	waitMembers(t, b2, "g", want2)

	// Traffic flows.
	if err := a.Multicast(Agreed, "g", []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, b2, "g")
	if string(d.Data) != "recovered" {
		t.Fatalf("got %q", d.Data)
	}
}

// TestTCPDaemonOverlay runs a three-daemon overlay over real TCP sockets.
func TestTCPDaemonOverlay(t *testing.T) {
	// Bind three listeners on loopback to learn free ports, then hand the
	// resolved address book to the daemons.
	names := []string{"t00", "t01", "t02"}
	addrs := make(map[string]string, len(names))
	tn := transport.NewTCPNetwork(map[string]string{
		"t00": "127.0.0.1:0", "t01": "127.0.0.1:0", "t02": "127.0.0.1:0",
	})
	// Attach probes to resolve ports, then close them and reuse the
	// addresses for the daemons (small race risk, acceptable in tests).
	for _, name := range names {
		node, err := tn.Attach(name, transport.HandlerFunc(func(string, []byte) {}))
		if err != nil {
			t.Fatal(err)
		}
		addr := node.(interface{ ListenAddr() string }).ListenAddr()
		addrs[name] = addr
		node.Close()
	}
	net2 := transport.NewTCPNetwork(addrs)

	var daemons []*Daemon
	for _, name := range names {
		d, err := NewDaemon(name, names, net2, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	cluster := &Cluster{Net: nil, Daemons: daemons, cfg: testConfig().withDefaults()}
	if err := cluster.WaitStable(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	a, _ := daemons[0].Connect("a")
	b, _ := daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)
	if err := a.Multicast(Agreed, "g", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, b, "g")
	if string(d.Data) != "over tcp" {
		t.Fatalf("got %q", d.Data)
	}
}

// TestChurnStress drives rapid join/leave churn while data flows and
// checks that the group converges with consistent membership everywhere.
func TestChurnStress(t *testing.T) {
	c := newTestCluster(t, 3)
	stable, _ := c.Daemons[0].Connect("anchor")
	if err := stable.Join("g"); err != nil {
		t.Fatal(err)
	}
	nextView(t, stable, "g")

	// Churners join and leave in quick succession.
	for round := 0; round < 3; round++ {
		var churners []*Client
		for i := 0; i < 4; i++ {
			cl, err := c.Daemons[i%3].Connect(fmt.Sprintf("churn%d-%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			churners = append(churners, cl)
			if err := cl.Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		if err := stable.Multicast(Agreed, "g", []byte("mid-churn")); err != nil {
			t.Fatal(err)
		}
		for _, cl := range churners {
			if err := cl.Leave("g"); err != nil {
				t.Fatal(err)
			}
		}
		// The anchor must converge back to a singleton view.
		waitMembers(t, stable, "g", []string{stable.Name()})
	}
}

// TestStampsStrictlyIncrease verifies the member-ordering invariant
// directly: within any delivered view, stamps are strictly increasing.
func TestStampsStrictlyIncrease(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	x, _ := c.Daemons[0].Connect("x")
	for _, cl := range []*Client{a, b, x} {
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{a.Name(), b.Name(), x.Name()}
	slices.Sort(want)
	v := waitMembers(t, a, "g", want)
	for i := 1; i < len(v.Members); i++ {
		if !v.Members[i-1].Stamp.Less(v.Members[i].Stamp) {
			t.Fatalf("stamps not strictly increasing: %+v", v.Members)
		}
	}
}

// TestLossyLinkRetransmission is the regression test for the lost-data bug
// the chaos harness found: under a lossy inter-daemon link, dropped data
// messages must be detected (gap in the per-sender sequence, or a heartbeat
// advertising a higher last-originated seq) and recovered by NACK-driven
// retransmission from the origin. Before the fix, the Lamport horizon
// advanced past the gap and stability GC discarded the retained copy, so a
// drop became a permanent loss and agreed delivery wedged.
func TestLossyLinkRetransmission(t *testing.T) {
	c := newTestCluster(t, 3)
	var clients []*Client
	for i, d := range c.Daemons {
		cl, err := d.Connect(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{clients[0].Name(), clients[1].Name(), clients[2].Name()}
	for _, cl := range clients {
		waitMembers(t, cl, "g", want)
	}

	// Once the group is stable, make every inter-daemon link lossy. The
	// seed pins the drop pattern so a failure replays identically.
	c.Net.SetSeed(42)
	c.Net.SetDropRate(150_000) // 15% loss on every hop
	defer c.Net.SetDropRate(0)

	const per = 15
	for i, cl := range clients {
		cl := cl
		i := i
		go func() {
			for j := 0; j < per; j++ {
				cl.Multicast(Agreed, "g", []byte(fmt.Sprintf("%d-%d", i, j)))
			}
		}()
	}

	// Every message must still be delivered, in the same agreed total
	// order at every member: the NACK path has to close each gap.
	total := per * len(clients)
	sequences := make([][]string, len(clients))
	for ci, cl := range clients {
		for len(sequences[ci]) < total {
			d := nextData(t, cl, "g")
			sequences[ci] = append(sequences[ci], d.Sender+":"+string(d.Data))
		}
	}
	for ci := 1; ci < len(sequences); ci++ {
		if !slices.Equal(sequences[0], sequences[ci]) {
			t.Fatalf("agreed delivery order differs between members under loss:\n%v\nvs\n%v",
				sequences[0], sequences[ci])
		}
	}

	// At 15% loss over 45 broadcasts to two peers each, some data message
	// was certainly dropped, so recovery must have actually fired.
	resent := 0
	for _, d := range c.Daemons {
		resent += d.Stats().MsgsRetransmitted
	}
	if resent == 0 {
		t.Fatal("no retransmissions recorded despite lossy links")
	}
}

// TestDisconnectDuringInFlightJoin is the regression test for the phantom
// member bug the chaos matrix found under -race: a client that disconnects
// while its join is still deferred behind a daemon membership change must
// still produce a departure announcement. Before the fix, the disconnect
// consulted only the applied group membership — which cannot contain a
// join still sitting in the deferred-op queue — so no leave was ever sent,
// the queued join replayed after the merge, and the client survived as a
// phantom member no daemon hosts, wedging every later flush round.
func TestDisconnectDuringInFlightJoin(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, a, "g", []string{a.Name()})

	// Split the daemons and wait for both sides to install their
	// singleton views.
	c.Net.Partition([]string{"d00"}, []string{"d01"})
	if err := c.WaitViews(5*time.Second, c.Daemons[:1]); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitViews(5*time.Second, c.Daemons[1:]); err != nil {
		t.Fatal(err)
	}

	// Heal under high link latency: the merge's propose/sync/install
	// round trips now take several hundred milliseconds, giving a wide,
	// reliable window in which d01 is mid-membership-change and client
	// ops are deferred.
	c.Net.SetLatency(200 * time.Millisecond)
	c.Net.Heal()
	time.Sleep(300 * time.Millisecond)

	// Join and disconnect inside the merge window: the join is queued
	// behind the in-progress view change, so the disconnect must consult
	// the client's requested memberships, not the applied group state.
	b, _ := c.Daemons[1].Connect("b")
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := b.Disconnect(); err != nil {
		t.Fatal(err)
	}
	c.Net.SetLatency(0)
	if err := c.WaitStable(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A fresh joiner's initial view reflects the current membership: it
	// must be exactly {a, x}. A phantom b would appear here and in every
	// later view of the group.
	x, _ := c.Daemons[0].Connect("x")
	if err := x.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, x, "g", []string{a.Name(), x.Name()})
}
