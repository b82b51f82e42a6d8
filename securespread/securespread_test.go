package securespread

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/spread"
)

func newCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewLocalClusterConfig(3, DaemonConfig{
		Heartbeat:    10 * time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func waitView(t *testing.T, s *Session, group string, n int) SecureView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ev, ok := s.Receive(time.Until(deadline))
		if !ok {
			break
		}
		if w, isWarn := ev.(Warning); isWarn {
			t.Logf("%s: warning: %v", s.Name(), w.Err)
		}
		if v, isView := ev.(SecureView); isView && v.Group == group && len(v.Members) == n {
			return v
		}
	}
	t.Fatalf("%s: no %d-member secure view for %s", s.Name(), n, group)
	return SecureView{}
}

// waitEpoch waits for an n-member secure view of group at epoch min or
// later and returns its epoch.
func waitEpoch(t *testing.T, s *Session, group string, n int, min uint64) uint64 {
	t.Helper()
	for {
		if v := waitView(t, s, group, n); v.Epoch >= min {
			return v.Epoch
		}
	}
}

func waitMsg(t *testing.T, s *Session, group string) Message {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ev, ok := s.Receive(time.Until(deadline))
		if !ok {
			break
		}
		if m, isMsg := ev.(Message); isMsg && m.Group == group {
			return m
		}
	}
	t.Fatalf("%s: no message for %s", s.Name(), group)
	return Message{}
}

func TestPublicAPIFlow(t *testing.T) {
	cluster := newCluster(t)
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := Connect(cluster.Daemons[i], fmt.Sprintf("user%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		if err := s.Join("room"); err != nil {
			t.Fatal(err)
		}
		for _, ss := range sessions {
			waitView(t, ss, "room", i+1)
		}
	}

	members, epoch, secured := sessions[0].GroupState("room")
	if !secured || epoch == 0 || len(members) != 3 {
		t.Fatalf("group state: %v %d %v", members, epoch, secured)
	}

	if err := sessions[1].Multicast("room", []byte("public api works")); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if m := waitMsg(t, s, "room"); string(m.Data) != "public api works" {
			t.Fatalf("got %q", m.Data)
		}
	}

	// Refresh through the facade.
	if err := sessions[0].KeyRefresh("room"); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		v := waitView(t, s, "room", 3)
		if v.Epoch <= epoch {
			t.Fatalf("refresh did not advance epoch: %d <= %d", v.Epoch, epoch)
		}
	}

	// Disconnect triggers a re-key at the survivors.
	if err := sessions[2].Disconnect(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions[:2] {
		v := waitView(t, s, "room", 2)
		if slices.Contains(v.Members, sessions[2].Name()) {
			t.Fatal("disconnected member still present")
		}
	}
}

func TestJoinWithModules(t *testing.T) {
	cluster := newCluster(t)
	a, err := Connect(cluster.Daemons[0], "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Connect(cluster.Daemons[1], "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{a, b} {
		if err := s.JoinWith("ops", ProtoCKD, SuiteAESCTR); err != nil {
			t.Fatal(err)
		}
	}
	va := waitView(t, a, "ops", 2)
	waitView(t, b, "ops", 2)
	// CKD controller is the oldest member.
	if va.Controller != a.Name() {
		t.Fatalf("controller = %s, want %s", va.Controller, a.Name())
	}
	if err := b.Multicast("ops", []byte("aes payload")); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, a, "ops"); string(m.Data) != "aes payload" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestModulusOption(t *testing.T) {
	cluster := newCluster(t)
	s, err := Connect(cluster.Daemons[0], "solo", WithModulusBits(1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, s, "g", 1)

	if _, err := Connect(cluster.Daemons[0], "bad", WithModulusBits(123)); err == nil {
		t.Fatal("invalid modulus size accepted")
	}
}

func TestLeaveViaFacade(t *testing.T) {
	cluster := newCluster(t)
	a, _ := Connect(cluster.Daemons[0], "a")
	b, _ := Connect(cluster.Daemons[1], "b")
	for _, s := range []*Session{a, b} {
		if err := s.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitView(t, a, "g", 2)
	waitView(t, b, "g", 2)
	if err := b.Leave("g"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		ev, ok := b.Receive(time.Until(deadline))
		if !ok {
			t.Fatal("b events closed before SelfLeave")
		}
		if _, isLeave := ev.(SelfLeave); isLeave {
			break
		}
	}
	waitView(t, a, "g", 1)
}

func TestStartTCPDaemon(t *testing.T) {
	// A single-daemon TCP deployment: exercises the real transport end
	// to end through the public API.
	addrs := map[string]string{"solo": "127.0.0.1:0"}
	d, err := StartTCPDaemon("solo", addrs, DaemonConfig{Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	s, err := Connect(d, "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Join("g"); err != nil {
		t.Fatal(err)
	}
	waitView(t, s, "g", 1)
	if err := s.Multicast("g", []byte("over tcp daemon")); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, s, "g"); string(m.Data) != "over tcp daemon" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestReceiveTimeout(t *testing.T) {
	cluster := newCluster(t)
	s, err := Connect(cluster.Daemons[0], "quiet")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ev, ok := s.Receive(50 * time.Millisecond)
	if ok || ev != nil {
		t.Fatalf("expected timeout, got %+v", ev)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

var _ = spread.Config{} // keep the spread import for the alias types

func TestConnectRemoteSecureSession(t *testing.T) {
	cluster := newCluster(t)
	ln, err := cluster.Daemons[0].ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	remote, err := ConnectRemote(ln.Addr().String(), "faraway")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Disconnect()
	local, err := Connect(cluster.Daemons[1], "nearby")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{remote, local} {
		if err := s.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	// The full secure stack (announce, key agreement, encryption) runs
	// across the TCP client hop transparently.
	waitView(t, remote, "g", 2)
	waitView(t, local, "g", 2)
	if err := remote.Multicast("g", []byte("encrypted over two hops")); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, local, "g"); string(m.Data) != "encrypted over two hops" {
		t.Fatalf("got %q", m.Data)
	}
}

// TestAutoRefreshAcrossDaemons drives WithAutoRefresh through the public
// API: with no membership change the group re-keys on its own, and secure
// multicast still crosses daemons under the rotated key.
func TestAutoRefreshAcrossDaemons(t *testing.T) {
	cluster, err := NewLocalClusterConfig(2, DaemonConfig{
		Heartbeat:    10 * time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)

	var sessions []*Session
	for i, name := range []string{"a", "b"} {
		s, err := Connect(cluster.Daemons[i], name, WithAutoRefresh(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Join("g"); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	a, b := sessions[0], sessions[1]
	first := waitView(t, a, "g", 2)
	// Both members must hold the rotated key before the send: a frame
	// sealed under a key the receiver already replaced is dropped as stale.
	rotated := waitEpoch(t, a, "g", 2, first.Epoch+1)
	waitEpoch(t, b, "g", 2, rotated)
	if err := a.Multicast("g", []byte("rotated")); err != nil {
		t.Fatal(err)
	}
	if m := waitMsg(t, b, "g"); string(m.Data) != "rotated" {
		t.Fatalf("got %q", m.Data)
	}
}
