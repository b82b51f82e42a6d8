package spread

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func testConfig() Config {
	// Generous suspicion timeout: the race detector slows the event loop
	// enough that tight failure-detector settings cause spurious churn.
	return Config{
		Heartbeat:    10 * time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
	}
}

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(n, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// Test-side view tracking: the view a wait is looking for may already have
// been consumed by an earlier wait (a joiner's initial view can already
// contain every member), so the harness remembers the latest view seen per
// (client, group).
var (
	lastViewMu sync.Mutex
	lastViews  = map[*Client]map[string]ViewEvent{}
)

func rememberView(c *Client, v ViewEvent) {
	lastViewMu.Lock()
	defer lastViewMu.Unlock()
	m := lastViews[c]
	if m == nil {
		m = map[string]ViewEvent{}
		lastViews[c] = m
	}
	m[v.Group] = v
}

func recallView(c *Client, group string) (ViewEvent, bool) {
	lastViewMu.Lock()
	defer lastViewMu.Unlock()
	v, ok := lastViews[c][group]
	return v, ok
}

// nextView receives events until a ViewEvent for the group arrives.
func nextView(t *testing.T, c *Client, group string) ViewEvent {
	t.Helper()
	for {
		ev, err := c.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("%s: waiting for view of %s: %v", c.Name(), group, err)
		}
		if v, ok := ev.(ViewEvent); ok {
			rememberView(c, v)
			if v.Group == group {
				return v
			}
		}
	}
}

// nextData receives events until a DataEvent for the group arrives.
func nextData(t *testing.T, c *Client, group string) DataEvent {
	t.Helper()
	for {
		ev, err := c.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("%s: waiting for data on %s: %v", c.Name(), group, err)
		}
		if v, ok := ev.(ViewEvent); ok {
			rememberView(c, v)
		}
		if d, ok := ev.(DataEvent); ok && d.Group == group {
			return d
		}
	}
}

func sameMembers(got, want []string) bool {
	if slices.Equal(got, want) {
		return true
	}
	g := slices.Clone(got)
	w := slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// waitMembers blocks until the client has observed the expected member set
// (counting views already consumed by earlier waits).
func waitMembers(t *testing.T, c *Client, group string, want []string) ViewEvent {
	t.Helper()
	if v, ok := recallView(c, group); ok && sameMembers(v.MemberNames(), want) {
		return v
	}
	for {
		v := nextView(t, c, group)
		if sameMembers(v.MemberNames(), want) {
			return v
		}
	}
}

func TestClusterStabilizes(t *testing.T) {
	c := newTestCluster(t, 3)
	v, ok := c.Daemons[0].CurrentView()
	if !ok {
		t.Fatal("daemon stopped")
	}
	if len(v.Members) != 3 {
		t.Fatalf("view has %d members, want 3", len(v.Members))
	}
}

func TestSingleDaemonJoinLeave(t *testing.T) {
	c := newTestCluster(t, 1)
	d := c.Daemons[0]

	a, err := d.Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Join("g"); err != nil {
		t.Fatal(err)
	}
	v := nextView(t, a, "g")
	if v.Reason != ReasonInitial {
		t.Fatalf("first view reason = %v, want initial", v.Reason)
	}
	if !slices.Equal(v.MemberNames(), []string{a.Name()}) {
		t.Fatalf("members = %v", v.MemberNames())
	}

	b, err := d.Connect("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g"); err != nil {
		t.Fatal(err)
	}
	va := nextView(t, a, "g")
	if va.Reason != ReasonJoin || !slices.Equal(va.Joined, []string{b.Name()}) {
		t.Fatalf("a's join view: %+v", va)
	}
	if !slices.Equal(va.Transitional, []string{a.Name()}) {
		t.Fatalf("a's transitional = %v", va.Transitional)
	}
	vb := nextView(t, b, "g")
	if vb.Reason != ReasonInitial {
		t.Fatalf("b's first view reason = %v", vb.Reason)
	}
	// Oldest-first ordering: a joined before b.
	if !slices.Equal(vb.MemberNames(), []string{a.Name(), b.Name()}) {
		t.Fatalf("member order = %v", vb.MemberNames())
	}

	if err := b.Leave("g"); err != nil {
		t.Fatal(err)
	}
	va = nextView(t, a, "g")
	if va.Reason != ReasonLeave || !slices.Equal(va.Left, []string{b.Name()}) {
		t.Fatalf("a's leave view: %+v", va)
	}
	vb = nextView(t, b, "g")
	if vb.Reason != ReasonLeave || len(vb.Members) != 0 {
		t.Fatalf("b's self-leave view: %+v", vb)
	}
}

func TestCrossDaemonMembershipAndOrder(t *testing.T) {
	c := newTestCluster(t, 3)
	var clients []*Client
	// Join strictly one after another (waiting for each view) so the
	// global join order — and therefore the canonical oldest-first member
	// order — is deterministic.
	for i, d := range c.Daemons {
		cl, err := d.Connect(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		nextView(t, cl, "g")
	}
	want := []string{clients[0].Name(), clients[1].Name(), clients[2].Name()}
	for _, cl := range clients {
		v := waitMembers(t, cl, "g", want)
		// Join order must match join sequence (agreed order).
		if !slices.Equal(v.MemberNames(), want) {
			t.Fatalf("%s sees order %v, want %v", cl.Name(), v.MemberNames(), want)
		}
	}
}

func TestAgreedTotalOrderAcrossSenders(t *testing.T) {
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

	// Every client sprays agreed messages concurrently.
	const per = 20
	for i, cl := range clients {
		cl := cl
		i := i
		go func() {
			for j := 0; j < per; j++ {
				cl.Multicast(Agreed, "g", []byte(fmt.Sprintf("%d-%d", i, j)))
			}
		}()
	}

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
			t.Fatalf("agreed delivery order differs between members:\n%v\nvs\n%v",
				sequences[0], sequences[ci])
		}
	}
}

func TestFIFOPerSenderOrder(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Multicast(FIFO, "g", []byte(fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d := nextData(t, b, "g")
		if string(d.Data) != fmt.Sprintf("%03d", i) {
			t.Fatalf("fifo position %d: got %s", i, d.Data)
		}
		if d.Service != FIFO {
			t.Fatalf("service = %v", d.Service)
		}
	}
}

func TestUnicastReachesOnlyTarget(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	x, _ := c.Daemons[1].Connect("x")
	for _, cl := range []*Client{a, b, x} {
		cl.Join("g")
	}
	want := []string{a.Name(), b.Name(), x.Name()}
	for _, cl := range []*Client{a, b, x} {
		waitMembers(t, cl, "g", want)
	}

	if err := a.Unicast(FIFO, "g", b.Name(), []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := a.Multicast(FIFO, "g", []byte("public")); err != nil {
		t.Fatal(err)
	}
	// b sees the unicast first, then the multicast (same sender: FIFO).
	d := nextData(t, b, "g")
	if string(d.Data) != "secret" {
		t.Fatalf("b first message = %s, want secret", d.Data)
	}
	d = nextData(t, b, "g")
	if string(d.Data) != "public" {
		t.Fatalf("b second message = %s, want public", d.Data)
	}
	// x must only see the multicast.
	d = nextData(t, x, "g")
	if string(d.Data) != "public" {
		t.Fatalf("x received %s, want public (unicast leaked?)", d.Data)
	}
}

func TestSenderReceivesOwnMulticast(t *testing.T) {
	c := newTestCluster(t, 1)
	a, _ := c.Daemons[0].Connect("a")
	a.Join("g")
	nextView(t, a, "g")
	a.Multicast(Agreed, "g", []byte("echo"))
	d := nextData(t, a, "g")
	if string(d.Data) != "echo" || d.Sender != a.Name() {
		t.Fatalf("self-delivery: %+v", d)
	}
}

func TestClientDisconnectGeneratesDisconnectView(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	waitMembers(t, a, "g", want)
	waitMembers(t, b, "g", want)

	if err := b.Disconnect(); err != nil {
		t.Fatal(err)
	}
	v := nextView(t, a, "g")
	if v.Reason != ReasonDisconnect || !slices.Equal(v.Left, []string{b.Name()}) {
		t.Fatalf("disconnect view: %+v", v)
	}
	if _, ok := <-b.Events(); ok {
		// drain until closed
		for range b.Events() {
		}
	}
}

func TestDaemonCrashPartitionsClients(t *testing.T) {
	c := newTestCluster(t, 3)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	x, _ := c.Daemons[2].Connect("x")
	for _, cl := range []*Client{a, b, x} {
		cl.Join("g")
	}
	want := []string{a.Name(), b.Name(), x.Name()}
	for _, cl := range []*Client{a, b, x} {
		waitMembers(t, cl, "g", want)
	}

	// Fail-stop the third daemon.
	c.Daemons[2].Stop()
	c.Net.Crash(c.Daemons[2].Name())

	// The survivors converge on a view without x. Membership churn may
	// take several steps (partition to singletons, then merge), so assert
	// the net effect: x ends up removed and some view reported it left.
	survivors := []string{a.Name(), b.Name()}
	va := waitMembers(t, a, "g", survivors)
	if slices.Contains(va.MemberNames(), x.Name()) {
		t.Fatalf("crashed daemon's client still present: %v", va.MemberNames())
	}
	switch va.Reason {
	case ReasonPartition, ReasonPartitionMerge, ReasonMerge, ReasonDisconnect:
	default:
		t.Fatalf("a's view reason = %v", va.Reason)
	}
	waitMembers(t, b, "g", survivors)
}

func TestPartitionAndMerge(t *testing.T) {
	c := newTestCluster(t, 3)
	names := []string{c.Daemons[0].Name(), c.Daemons[1].Name(), c.Daemons[2].Name()}
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	x, _ := c.Daemons[2].Connect("x")
	// Sequential joins: a is deterministically the oldest member, so the
	// a/b component is the merge base later.
	for _, cl := range []*Client{a, b, x} {
		if err := cl.Join("g"); err != nil {
			t.Fatal(err)
		}
		nextView(t, cl, "g")
	}
	all := []string{a.Name(), b.Name(), x.Name()}
	for _, cl := range []*Client{a, b, x} {
		waitMembers(t, cl, "g", all)
	}

	// Partition daemon 2 (hosting x) away.
	c.Net.Partition(names[:2], names[2:])

	va := waitMembers(t, a, "g", []string{a.Name(), b.Name()})
	if va.Reason != ReasonPartition {
		t.Fatalf("a's partition reason = %v", va.Reason)
	}
	vx := waitMembers(t, x, "g", []string{x.Name()})
	if vx.Reason != ReasonPartition {
		t.Fatalf("x's partition reason = %v", vx.Reason)
	}

	// Heal: the components merge; x is re-stamped into the tail.
	c.Net.Heal()
	va = waitMembers(t, a, "g", all)
	if va.Reason != ReasonMerge {
		t.Fatalf("a's merge reason = %v", va.Reason)
	}
	if !slices.Equal(va.Joined, []string{x.Name()}) {
		t.Fatalf("a's merge joined = %v", va.Joined)
	}
	// Canonical order: base component (a, b — it holds the oldest
	// member) first, merged member at the tail.
	if !slices.Equal(va.MemberNames(), []string{a.Name(), b.Name(), x.Name()}) {
		t.Fatalf("merged order = %v", va.MemberNames())
	}
	vx = waitMembers(t, x, "g", all)
	if vx.Reason != ReasonMerge && vx.Reason != ReasonPartitionMerge {
		t.Fatalf("x's merge reason = %v", vx.Reason)
	}
	// Both sides must agree on the canonical member order.
	if !slices.Equal(vx.MemberNames(), va.MemberNames()) {
		t.Fatalf("order disagreement: %v vs %v", vx.MemberNames(), va.MemberNames())
	}
	// x must be in the global joined list itself.
	if !slices.Contains(vx.Joined, x.Name()) {
		t.Fatalf("x's joined = %v, must contain itself", vx.Joined)
	}
}

func TestViewIDsAgreeAcrossDaemons(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g")
	b.Join("g")
	want := []string{a.Name(), b.Name()}
	va := waitMembers(t, a, "g", want)
	vb := waitMembers(t, b, "g", want)
	if va.ID != vb.ID {
		t.Fatalf("view ids differ: %v vs %v", va.ID, vb.ID)
	}
}

func TestMessagesSurviveViewChange(t *testing.T) {
	// EVS delivery cut: messages multicast right as a member joins must
	// still be delivered consistently.
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g")
	nextView(t, a, "g")
	go func() {
		for i := 0; i < 10; i++ {
			a.Multicast(Agreed, "g", []byte(fmt.Sprintf("m%d", i)))
		}
	}()
	b.Join("g")
	// Collect both the membership change and all ten messages, in
	// whatever interleaving the race produces: messages may be delivered
	// before or after the join view.
	want := []string{a.Name(), b.Name()}
	var got []string
	sawView := false
	deadline := time.Now().Add(10 * time.Second)
	for (len(got) < 10 || !sawView) && time.Now().Before(deadline) {
		ev, err := a.Receive(time.Until(deadline))
		if err != nil {
			t.Fatalf("a: %v (have %d msgs, view=%v)", err, len(got), sawView)
		}
		switch e := ev.(type) {
		case DataEvent:
			if e.Group == "g" {
				got = append(got, string(e.Data))
			}
		case ViewEvent:
			if e.Group == "g" && slices.Equal(e.MemberNames(), want) {
				sawView = true
			}
		}
	}
	for i, m := range got {
		if m != fmt.Sprintf("m%d", i) {
			t.Fatalf("message %d = %s", i, m)
		}
	}
}

func TestConnectValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	d := c.Daemons[0]
	if _, err := d.Connect(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := d.Connect("has#hash"); err == nil {
		t.Fatal("name with separator accepted")
	}
	if _, err := d.Connect("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Connect("dup"); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestStoppedDaemonRejectsOps(t *testing.T) {
	c, err := NewCluster(1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Daemons[0].Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if err := a.Join("g"); err == nil {
		t.Fatal("join on stopped daemon accepted")
	}
}

func TestTwoGroupsIndependent(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	b, _ := c.Daemons[1].Connect("b")
	a.Join("g1")
	b.Join("g2")
	v1 := nextView(t, a, "g1")
	v2 := nextView(t, b, "g2")
	if len(v1.Members) != 1 || len(v2.Members) != 1 {
		t.Fatalf("groups leak members: %v %v", v1.Members, v2.Members)
	}
	a.Multicast(FIFO, "g1", []byte("only-g1"))
	d := nextData(t, a, "g1")
	if string(d.Data) != "only-g1" {
		t.Fatal("wrong data")
	}
	select {
	case ev := <-b.Events():
		if de, ok := ev.(DataEvent); ok {
			t.Fatalf("b received cross-group data: %+v", de)
		}
	case <-time.After(50 * time.Millisecond):
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := newTestCluster(t, 2)
	a, _ := c.Daemons[0].Connect("a")
	a.Join("g")
	nextView(t, a, "g")
	a.Multicast(Agreed, "g", []byte("x"))
	nextData(t, a, "g")

	st := c.Daemons[0].Stats()
	if st.Clients != 1 {
		t.Fatalf("clients = %d", st.Clients)
	}
	if st.Groups != 1 {
		t.Fatalf("groups = %d", st.Groups)
	}
	if st.MsgsSent == 0 || st.MsgsDelivered == 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	if len(st.View.Members) != 2 {
		t.Fatalf("view = %+v", st.View)
	}
}
