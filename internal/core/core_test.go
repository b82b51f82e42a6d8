package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	_ "repro/internal/ckd" // register the "ckd" module
	_ "repro/internal/cliques"
	"repro/internal/crypt"
	"repro/internal/spread"
)

func newCluster(t *testing.T, n int) *spread.Cluster {
	t.Helper()
	c, err := spread.NewCluster(n, spread.Config{
		Heartbeat:    10 * time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func connectSecure(t *testing.T, d *spread.Daemon, user string, opts ...Option) *Conn {
	t.Helper()
	cl, err := d.Connect(user)
	if err != nil {
		t.Fatal(err)
	}
	return New(cl, opts...)
}

func recvEvent(t *testing.T, c *Conn) Event {
	t.Helper()
	select {
	case ev, ok := <-c.Events():
		if !ok {
			t.Fatalf("%s: secure events closed", c.Name())
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: timed out waiting for secure event", c.Name())
		return nil
	}
}

// Seen secure views per connection: a wait for one group must not discard
// views of another group (or a later wait for them would hang).
var (
	seenMu    sync.Mutex
	seenViews = map[*Conn][]SecureView{}
)

func rememberSecure(c *Conn, v SecureView) {
	seenMu.Lock()
	defer seenMu.Unlock()
	seenViews[c] = append(seenViews[c], v)
}

func recallSecure(c *Conn, group string, n int, minEpoch uint64) (SecureView, bool) {
	seenMu.Lock()
	defer seenMu.Unlock()
	views := seenViews[c]
	for i := len(views) - 1; i >= 0; i-- {
		if views[i].Group != group {
			continue
		}
		// Only the latest secured state of the group counts.
		if len(views[i].Members) == n && views[i].Epoch >= minEpoch {
			return views[i], true
		}
		return SecureView{}, false
	}
	return SecureView{}, false
}

// waitSecure consumes events until a SecureView for the group with the
// expected member count arrives (counting views consumed by earlier waits).
func waitSecure(t *testing.T, c *Conn, group string, n int) SecureView {
	t.Helper()
	return waitSecureMin(t, c, group, n, 0)
}

// waitSecureMin additionally requires a minimum key epoch (for re-key
// tests where the member count does not change).
func waitSecureMin(t *testing.T, c *Conn, group string, n int, minEpoch uint64) SecureView {
	t.Helper()
	if v, ok := recallSecure(c, group, n, minEpoch); ok {
		return v
	}
	for {
		switch e := recvEvent(t, c).(type) {
		case SecureView:
			rememberSecure(c, e)
			if e.Group == group && len(e.Members) == n && e.Epoch >= minEpoch {
				return e
			}
		case Warning:
			t.Logf("%s: warning: %v", c.Name(), e.Err)
		}
	}
}

// waitMessage consumes events until a decrypted message arrives.
func waitMessage(t *testing.T, c *Conn, group string) Message {
	t.Helper()
	for {
		switch e := recvEvent(t, c).(type) {
		case Message:
			if e.Group == group {
				return e
			}
		case SecureView:
			rememberSecure(c, e)
		case Warning:
			t.Logf("%s: warning: %v", c.Name(), e.Err)
		}
	}
}

func TestSecureGroupBothProtocols(t *testing.T) {
	for _, proto := range []string{"cliques", "ckd"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			cluster := newCluster(t, 3)
			var conns []*Conn
			for i := 0; i < 3; i++ {
				c := connectSecure(t, cluster.Daemons[i], fmt.Sprintf("u%d", i))
				conns = append(conns, c)
				if err := c.Join("g", proto, crypt.SuiteBlowfish); err != nil {
					t.Fatal(err)
				}
				// Every current member re-keys to the new view.
				for _, cc := range conns {
					waitSecure(t, cc, "g", i+1)
				}
			}

			// All report the same epoch and membership.
			m0, e0, ok := conns[0].GroupState("g")
			if !ok {
				t.Fatal("group not secured")
			}
			for _, c := range conns[1:] {
				m, e, ok := c.GroupState("g")
				if !ok || e != e0 || !slices.Equal(m, m0) {
					t.Fatalf("%s state (%v,%d,%v) != (%v,%d)", c.Name(), m, e, ok, m0, e0)
				}
			}

			// Encrypted group messaging.
			if err := conns[0].Multicast("g", []byte("secret payload")); err != nil {
				t.Fatal(err)
			}
			for _, c := range conns {
				msg := waitMessage(t, c, "g")
				if string(msg.Data) != "secret payload" {
					t.Fatalf("%s got %q", c.Name(), msg.Data)
				}
				if msg.Sender != conns[0].Name() {
					t.Fatalf("sender = %s", msg.Sender)
				}
			}
		})
	}
}

func TestControllerRole(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	b := connectSecure(t, cluster.Daemons[0], "b")

	// Cliques: controller is the NEWEST member.
	if err := a.Join("gc", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	waitSecure(t, a, "gc", 1)
	if err := b.Join("gc", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	va := waitSecure(t, a, "gc", 2)
	if va.Controller != b.Name() {
		t.Fatalf("cliques controller = %s, want newest %s", va.Controller, b.Name())
	}
	waitSecure(t, b, "gc", 2)

	// CKD: controller is the OLDEST member.
	if err := a.Join("gk", "ckd", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	waitSecure(t, a, "gk", 1)
	if err := b.Join("gk", "ckd", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	vk := waitSecure(t, a, "gk", 2)
	if vk.Controller != a.Name() {
		t.Fatalf("ckd controller = %s, want oldest %s", vk.Controller, a.Name())
	}
	waitSecure(t, b, "gk", 2)
}

func TestLeaveRekeys(t *testing.T) {
	cluster := newCluster(t, 1)
	var conns []*Conn
	for i := 0; i < 3; i++ {
		c := connectSecure(t, cluster.Daemons[0], fmt.Sprintf("u%d", i))
		conns = append(conns, c)
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
		for _, cc := range conns {
			waitSecure(t, cc, "g", i+1)
		}
	}
	_, epochBefore, _ := conns[0].GroupState("g")

	if err := conns[1].Leave("g"); err != nil {
		t.Fatal(err)
	}
	// The leaver gets its SelfLeave; survivors re-key.
	for {
		if _, ok := recvEvent(t, conns[1]).(SelfLeave); ok {
			break
		}
	}
	for _, c := range []*Conn{conns[0], conns[2]} {
		v := waitSecure(t, c, "g", 2)
		if v.Epoch <= epochBefore {
			t.Fatalf("epoch did not advance on leave: %d <= %d", v.Epoch, epochBefore)
		}
		if slices.Contains(v.Members, conns[1].Name()) {
			t.Fatal("leaver still in secured membership")
		}
	}

	// Post-leave messaging still works.
	if err := conns[0].Multicast("g", []byte("after leave")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, conns[2], "g"); string(msg.Data) != "after leave" {
		t.Fatalf("got %q", msg.Data)
	}
	// The departed member cannot send anymore.
	if err := conns[1].Multicast("g", []byte("ghost")); err == nil {
		t.Fatal("multicast after leave should fail")
	}
}

func TestKeyRefresh(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	b := connectSecure(t, cluster.Daemons[0], "b")
	for _, c := range []*Conn{a, b} {
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
	}
	waitSecure(t, a, "g", 2)
	waitSecure(t, b, "g", 2)
	_, epochBefore, _ := a.GroupState("g")

	// b is the controller (newest); a's request is forwarded to it.
	if err := a.KeyRefresh("g"); err != nil {
		t.Fatal(err)
	}
	va := waitSecureMin(t, a, "g", 2, epochBefore+1)
	vb := waitSecureMin(t, b, "g", 2, epochBefore+1)
	if va.Epoch != vb.Epoch || va.Epoch != epochBefore+1 {
		t.Fatalf("refresh epochs: a=%d b=%d before=%d", va.Epoch, vb.Epoch, epochBefore)
	}

	// Messaging under the refreshed key.
	if err := b.Multicast("g", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, a, "g"); string(msg.Data) != "fresh" {
		t.Fatalf("got %q", msg.Data)
	}
}

func TestPartitionAndMergeRekey(t *testing.T) {
	cluster := newCluster(t, 3)
	names := []string{cluster.Daemons[0].Name(), cluster.Daemons[1].Name(), cluster.Daemons[2].Name()}
	var conns []*Conn
	for i := 0; i < 3; i++ {
		c := connectSecure(t, cluster.Daemons[i], fmt.Sprintf("u%d", i))
		conns = append(conns, c)
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
		for _, cc := range conns {
			waitSecure(t, cc, "g", i+1)
		}
	}

	// Partition: u2's daemon is isolated.
	cluster.Net.Partition(names[:2], names[2:])
	waitSecure(t, conns[0], "g", 2)
	waitSecure(t, conns[1], "g", 2)
	waitSecure(t, conns[2], "g", 1)

	// Each side can communicate within its component.
	if err := conns[0].Multicast("g", []byte("majority side")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, conns[1], "g"); string(msg.Data) != "majority side" {
		t.Fatalf("got %q", msg.Data)
	}

	// Heal: merge re-keys everyone into one group.
	cluster.Net.Heal()
	for _, c := range conns {
		v := waitSecure(t, c, "g", 3)
		if v.Reason != spread.ReasonMerge && v.Reason != spread.ReasonPartitionMerge {
			t.Fatalf("%s merge reason = %v", c.Name(), v.Reason)
		}
	}
	m0, e0, _ := conns[0].GroupState("g")
	for _, c := range conns[1:] {
		m, e, ok := c.GroupState("g")
		if !ok || e != e0 || !slices.Equal(m, m0) {
			t.Fatalf("post-merge state mismatch at %s", c.Name())
		}
	}
	if err := conns[2].Multicast("g", []byte("back together")); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns[:2] {
		if msg := waitMessage(t, c, "g"); string(msg.Data) != "back together" {
			t.Fatalf("got %q", msg.Data)
		}
	}
}

func TestDaemonCrashRekeysSurvivors(t *testing.T) {
	cluster := newCluster(t, 3)
	var conns []*Conn
	for i := 0; i < 3; i++ {
		c := connectSecure(t, cluster.Daemons[i], fmt.Sprintf("u%d", i))
		conns = append(conns, c)
		if err := c.Join("g", "ckd", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
		for _, cc := range conns {
			waitSecure(t, cc, "g", i+1)
		}
	}
	// Fail-stop the daemon hosting u1 — also the CKD controller survives
	// at u0, exercising the ordinary mass-leave path.
	cluster.Daemons[1].Stop()
	cluster.Net.Crash(cluster.Daemons[1].Name())

	for _, c := range []*Conn{conns[0], conns[2]} {
		v := waitSecure(t, c, "g", 2)
		if slices.Contains(v.Members, conns[1].Name()) {
			t.Fatal("crashed member still in secured view")
		}
	}
	if err := conns[0].Multicast("g", []byte("survivors")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, conns[2], "g"); string(msg.Data) != "survivors" {
		t.Fatalf("got %q", msg.Data)
	}
}

func TestCascadedJoinsConverge(t *testing.T) {
	// Several members join nearly simultaneously: flushes cascade and the
	// secure layer must converge with a consistent key, via incremental
	// ops or the full-rekey fallback.
	cluster := newCluster(t, 3)
	const n = 5
	var conns []*Conn
	for i := 0; i < n; i++ {
		c := connectSecure(t, cluster.Daemons[i%3], fmt.Sprintf("u%d", i))
		conns = append(conns, c)
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conns {
		waitSecure(t, c, "g", n)
	}
	m0, e0, _ := conns[0].GroupState("g")
	for _, c := range conns[1:] {
		m, e, ok := c.GroupState("g")
		if !ok || e != e0 || !slices.Equal(m, m0) {
			t.Fatalf("cascade left %s at (%v,%d), want (%v,%d)", c.Name(), m, e, m0, e0)
		}
	}
	// Everyone can talk.
	if err := conns[n-1].Multicast("g", []byte("converged")); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		if msg := waitMessage(t, c, "g"); string(msg.Data) != "converged" {
			t.Fatalf("got %q", msg.Data)
		}
	}
}

func TestTwoGroupsDifferentProtocols(t *testing.T) {
	// The paper's run-time module selection: one connection, two groups,
	// one using distributed and one using centralized key management.
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	b := connectSecure(t, cluster.Daemons[0], "b")
	for _, c := range []*Conn{a, b} {
		if err := c.Join("gc", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
		if err := c.Join("gk", "ckd", crypt.SuiteAESCTR); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []string{"gc", "gk"} {
		waitSecure(t, a, g, 2)
		waitSecure(t, b, g, 2)
	}
	if err := a.Multicast("gc", []byte("via cliques")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, b, "gc"); string(msg.Data) != "via cliques" {
		t.Fatalf("got %q", msg.Data)
	}
	if err := b.Multicast("gk", []byte("via ckd")); err != nil {
		t.Fatal(err)
	}
	if msg := waitMessage(t, a, "gk"); string(msg.Data) != "via ckd" {
		t.Fatalf("got %q", msg.Data)
	}
}

func TestSendBeforeSecuredFails(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	if err := a.Multicast("g", []byte("x")); err == nil {
		t.Fatal("multicast before join should fail")
	}
	if err := a.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	waitSecure(t, a, "g", 1)
	if err := a.Multicast("g", []byte("x")); err != nil {
		t.Fatalf("multicast after secured: %v", err)
	}
}

func TestJoinValidation(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a")
	if err := a.Join("g", "no-such-proto", crypt.SuiteBlowfish); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := a.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	if err := a.Join("g", "cliques", crypt.SuiteBlowfish); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestAutoRefresh(t *testing.T) {
	cluster := newCluster(t, 1)
	a := connectSecure(t, cluster.Daemons[0], "a", WithAutoRefresh(150*time.Millisecond))
	b := connectSecure(t, cluster.Daemons[0], "b", WithAutoRefresh(150*time.Millisecond))
	for _, c := range []*Conn{a, b} {
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
	}
	waitSecure(t, a, "g", 2)
	waitSecure(t, b, "g", 2)
	_, e0, _ := a.GroupState("g")

	// Without any membership change or explicit request, the controller
	// must re-key at least twice within a second.
	va := waitSecureMin(t, a, "g", 2, e0+2)
	vb := waitSecureMin(t, b, "g", 2, e0+2)
	if va.Epoch < e0+2 || vb.Epoch < e0+2 {
		t.Fatalf("auto refresh epochs: a=%d b=%d from %d", va.Epoch, vb.Epoch, e0)
	}
	// Messaging still works under the rotated key.
	if err := a.Multicast("g", []byte("rotated")); err != nil {
		t.Fatal(err)
	}
	if m := waitMessage(t, b, "g"); string(m.Data) != "rotated" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestPartitionAndMergeRekeyCKD(t *testing.T) {
	// The centralized module must also survive partition and merge: the
	// base component's oldest member re-handshakes the merged members.
	cluster := newCluster(t, 3)
	names := []string{cluster.Daemons[0].Name(), cluster.Daemons[1].Name(), cluster.Daemons[2].Name()}
	var conns []*Conn
	for i := 0; i < 3; i++ {
		c := connectSecure(t, cluster.Daemons[i], fmt.Sprintf("u%d", i))
		conns = append(conns, c)
		if err := c.Join("g", "ckd", crypt.SuiteAESCTR); err != nil {
			t.Fatal(err)
		}
		for _, cc := range conns {
			waitSecure(t, cc, "g", i+1)
		}
	}
	cluster.Net.Partition(names[:1], names[1:])
	waitSecure(t, conns[0], "g", 1)
	waitSecure(t, conns[1], "g", 2)
	waitSecure(t, conns[2], "g", 2)

	cluster.Net.Heal()
	for _, c := range conns {
		waitSecure(t, c, "g", 3)
	}
	m0, e0, _ := conns[0].GroupState("g")
	for _, c := range conns[1:] {
		m, e, ok := c.GroupState("g")
		if !ok || e != e0 || !slices.Equal(m, m0) {
			t.Fatalf("ckd post-merge mismatch at %s: (%v,%d) vs (%v,%d)", c.Name(), m, e, m0, e0)
		}
	}
	if err := conns[1].Multicast("g", []byte("ckd healed")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Conn{conns[0], conns[2]} {
		if m := waitMessage(t, c, "g"); string(m.Data) != "ckd healed" {
			t.Fatalf("got %q", m.Data)
		}
	}
}
