package spread

import (
	"encoding/gob"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
)

// recvRemote consumes events from an Endpoint with a deadline.
func recvRemote(t *testing.T, e Endpoint, timeout time.Duration) Event {
	t.Helper()
	select {
	case ev, ok := <-e.Events():
		if !ok {
			t.Fatalf("%s: events closed", e.Name())
		}
		return ev
	case <-time.After(timeout):
		t.Fatalf("%s: timed out waiting for event", e.Name())
		return nil
	}
}

func waitRemoteMembers(t *testing.T, e Endpoint, group string, want []string) ViewEvent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ev := recvRemote(t, e, time.Until(deadline))
		v, ok := ev.(ViewEvent)
		if !ok || v.Group != group {
			continue
		}
		got := slices.Clone(v.MemberNames())
		slices.Sort(got)
		w := slices.Clone(want)
		slices.Sort(w)
		if slices.Equal(got, w) {
			return v
		}
	}
	t.Fatalf("%s: no view with members %v", e.Name(), want)
	return ViewEvent{}
}

func TestRemoteClientEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2)
	ln, err := c.Daemons[0].ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	remote, err := RemoteConnect(ln.Addr().String(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Disconnect()
	local, err := c.Daemons[1].Connect("local")
	if err != nil {
		t.Fatal(err)
	}

	if err := remote.Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := local.Join("g"); err != nil {
		t.Fatal(err)
	}
	want := []string{remote.Name(), local.Name()}
	waitRemoteMembers(t, remote, "g", want)
	waitMembers(t, local, "g", want)

	// Remote -> local.
	if err := remote.Multicast(Agreed, "g", []byte("from afar")); err != nil {
		t.Fatal(err)
	}
	d := nextData(t, local, "g")
	if string(d.Data) != "from afar" || d.Sender != remote.Name() {
		t.Fatalf("local got %+v", d)
	}

	// Local -> remote, including unicast. Nothing orders the FIFO unicast
	// against the remote's own AGREED self-delivery, so the remote must
	// receive each exactly once, in either order.
	if err := local.Unicast(FIFO, "g", remote.Name(), []byte("just you")); err != nil {
		t.Fatal(err)
	}
	wantFrom := map[string]string{"from afar": remote.Name(), "just you": local.Name()}
	seen := map[string]bool{}
	for len(seen) < len(wantFrom) {
		de, ok := recvRemote(t, remote, 10*time.Second).(DataEvent)
		if !ok {
			continue
		}
		data := string(de.Data)
		if from, known := wantFrom[data]; !known || de.Sender != from || seen[data] {
			t.Fatalf("remote got %q from %s (already seen: %v)", data, de.Sender, seen[data])
		}
		seen[data] = true
	}

	// Remote disconnect produces a membership change at the survivor.
	remote.Disconnect()
	waitMembers(t, local, "g", []string{local.Name()})
}

func TestRemoteClientBadUser(t *testing.T) {
	c := newTestCluster(t, 1)
	ln, err := c.Daemons[0].ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := RemoteConnect(ln.Addr().String(), "bad#name"); err == nil {
		t.Fatal("invalid user accepted over the wire")
	}
}

func TestRemoteClientThroughSecureStack(t *testing.T) {
	// The remote endpoint must be indistinguishable to the layers above:
	// exercised here through the flush-level Endpoint interface by a
	// second join racing the remote one.
	c := newTestCluster(t, 2)
	ln, err := c.Daemons[0].ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	r1, err := RemoteConnect(ln.Addr().String(), "r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Disconnect()
	r2, err := RemoteConnect(ln.Addr().String(), "r2")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Disconnect()

	for _, e := range []Endpoint{r1, r2} {
		if err := e.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{r1.Name(), r2.Name()}
	waitRemoteMembers(t, r1, "g", want)
	waitRemoteMembers(t, r2, "g", want)
	if err := r1.Multicast(Agreed, "g", []byte("remote pair")); err != nil {
		t.Fatal(err)
	}
	for {
		ev := recvRemote(t, r2, 10*time.Second)
		if de, ok := ev.(DataEvent); ok {
			if string(de.Data) != "remote pair" {
				t.Fatalf("got %q", de.Data)
			}
			break
		}
	}
}

// TestRemoteClientDisconnectWithFullBuffer disconnects remote clients whose
// event buffer a daemon keeps full while the buffer drains concurrently:
// the reader goroutine is then mid-send as Disconnect runs, and must never
// send on a closed events channel. Events must still close.
func TestRemoteClientDisconnectWithFullBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A stand-in daemon: acknowledge the connect, then stream data events
	// until the client goes away.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req rcRequest
				if err := gob.NewDecoder(conn).Decode(&req); err != nil {
					return
				}
				enc := gob.NewEncoder(conn)
				if err := enc.Encode(&rcReply{OK: true, Name: "#flood#d00"}); err != nil {
					return
				}
				ev := &DataEvent{Group: "g", Sender: "#src#d00", Data: []byte("x")}
				for enc.Encode(&rcReply{Data: ev}) == nil {
				}
			}()
		}
	}()

	for range 30 {
		rc, err := RemoteConnect(ln.Addr().String(), "flood")
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(rc.events) < cap(rc.events) {
			if time.Now().After(deadline) {
				t.Fatalf("event buffer holds %d of %d after 10s", len(rc.events), cap(rc.events))
			}
			time.Sleep(time.Millisecond)
		}
		// Drain, and disconnect once the drain is under way: the reader is
		// then looping decode -> send, not parked on a full buffer.
		drained := make(chan struct{})
		go func() {
			for range rc.Events() {
			}
			close(drained)
		}()
		for len(rc.events) > cap(rc.events)/2 {
			runtime.Gosched()
		}
		rc.Disconnect()
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatal("events not closed after Disconnect")
		}
	}
}
