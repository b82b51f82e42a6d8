package spread

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// Remote client support: the real Spread toolkit's clients connect to a
// daemon over TCP. ListenClients exposes a daemon to remote processes, and
// RemoteConnect produces a client that satisfies the same Endpoint
// interface as the in-process Client, so the flush and secure layers work
// unchanged across a network hop.

// Remote protocol operations.
const (
	rcConnect = iota + 1
	rcJoin
	rcLeave
	rcMulticast
	rcUnicast
	rcDisconnect
)

// rcRequest is a client-to-daemon frame.
type rcRequest struct {
	Op      int
	User    string // connect
	Group   string
	Member  string // unicast destination
	Service Service
	Data    []byte
}

// rcReply is a daemon-to-client frame: the connect acknowledgment or an
// event. Exactly one pointer field is set.
type rcReply struct {
	OK   bool
	Err  string
	Name string

	Data *DataEvent
	View *ViewEvent
}

// ListenClients starts accepting remote client connections on addr and
// returns the listener (close it to stop accepting; its address reports
// the bound port when addr used port 0). Each accepted connection becomes
// an in-process Client whose events are relayed over the socket.
func (d *Daemon) ListenClients(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("spread: listen clients on %s: %w", addr, err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go d.serveRemoteClient(conn)
		}
	}()
	go func() {
		// Stop accepting when the daemon stops.
		<-d.stop
		_ = ln.Close()
	}()
	return ln, nil
}

func (d *Daemon) serveRemoteClient(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex
	send := func(r *rcReply) error {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Encode(r)
	}

	// Handshake.
	var req rcRequest
	if err := dec.Decode(&req); err != nil || req.Op != rcConnect {
		return
	}
	client, err := d.Connect(req.User)
	if err != nil {
		_ = send(&rcReply{Err: err.Error()})
		return
	}
	defer client.Disconnect()
	if err := send(&rcReply{OK: true, Name: client.Name()}); err != nil {
		return
	}

	// Relay events daemon -> socket.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range client.Events() {
			var r rcReply
			switch e := ev.(type) {
			case DataEvent:
				ee := e
				r.Data = &ee
			case ViewEvent:
				ee := e
				r.View = &ee
			default:
				continue
			}
			if err := send(&r); err != nil {
				return
			}
		}
	}()

	// Relay requests socket -> daemon.
	for {
		var op rcRequest
		if err := dec.Decode(&op); err != nil {
			break
		}
		switch op.Op {
		case rcJoin:
			err = client.Join(op.Group)
		case rcLeave:
			err = client.Leave(op.Group)
		case rcMulticast:
			err = client.Multicast(op.Service, op.Group, op.Data)
		case rcUnicast:
			err = client.Unicast(op.Service, op.Group, op.Member, op.Data)
		case rcDisconnect:
			_ = client.Disconnect()
			<-done
			return
		default:
			err = fmt.Errorf("spread: unknown remote op %d", op.Op)
		}
		if err != nil {
			// Operation errors are fatal for the session: the remote
			// client reconnects with fresh state, like a Spread client
			// whose daemon connection broke.
			break
		}
	}
	_ = client.Disconnect()
	<-done
}

// RemoteClient is a TCP connection to a daemon's client listener. It
// implements Endpoint.
type RemoteClient struct {
	name   string
	conn   net.Conn
	enc    *gob.Encoder
	encMu  sync.Mutex
	events chan Event

	closeOnce sync.Once
	closed    chan struct{}
}

var _ Endpoint = (*RemoteClient)(nil)

// RemoteConnect dials a daemon's client listener and registers under the
// given user name.
func RemoteConnect(addr, user string) (*RemoteClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("spread: dial daemon %s: %w", addr, err)
	}
	rc := &RemoteClient{
		conn:   conn,
		enc:    gob.NewEncoder(conn),
		events: make(chan Event, 4096),
		closed: make(chan struct{}),
	}
	dec := gob.NewDecoder(conn)
	if err := rc.request(&rcRequest{Op: rcConnect, User: user}); err != nil {
		conn.Close()
		return nil, err
	}
	var ack rcReply
	if err := dec.Decode(&ack); err != nil {
		conn.Close()
		return nil, fmt.Errorf("spread: remote connect: %w", err)
	}
	if !ack.OK {
		conn.Close()
		return nil, fmt.Errorf("spread: remote connect refused: %s", ack.Err)
	}
	rc.name = ack.Name

	// The reader is the only sender on events, so it alone closes it, on
	// exit; shutdown closing it could race a send in the select below.
	go func() {
		defer close(rc.events)
		defer rc.shutdown()
		for {
			var r rcReply
			if err := dec.Decode(&r); err != nil {
				return
			}
			var ev Event
			switch {
			case r.Data != nil:
				ev = *r.Data
			case r.View != nil:
				ev = *r.View
			default:
				continue
			}
			select {
			case rc.events <- ev:
			case <-rc.closed:
				return
			}
		}
	}()
	return rc, nil
}

func (rc *RemoteClient) request(r *rcRequest) error {
	rc.encMu.Lock()
	defer rc.encMu.Unlock()
	select {
	case <-rc.closed:
		return ErrDisconnected
	default:
	}
	if err := rc.enc.Encode(r); err != nil {
		return fmt.Errorf("spread: remote request: %w", err)
	}
	return nil
}

// shutdown stops the session. Closing the conn ends the reader goroutine,
// which then closes events.
func (rc *RemoteClient) shutdown() {
	rc.closeOnce.Do(func() {
		close(rc.closed)
		_ = rc.conn.Close()
	})
}

// Name returns the member name assigned by the daemon.
func (rc *RemoteClient) Name() string { return rc.name }

// Events returns the delivery channel.
func (rc *RemoteClient) Events() <-chan Event { return rc.events }

// Join requests group membership.
func (rc *RemoteClient) Join(group string) error {
	return rc.request(&rcRequest{Op: rcJoin, Group: group})
}

// Leave requests departure from a group.
func (rc *RemoteClient) Leave(group string) error {
	return rc.request(&rcRequest{Op: rcLeave, Group: group})
}

// Multicast sends data to every member of the group.
func (rc *RemoteClient) Multicast(svc Service, group string, data []byte) error {
	return rc.request(&rcRequest{Op: rcMulticast, Group: group, Service: svc, Data: data})
}

// Unicast sends data to one member of the group.
func (rc *RemoteClient) Unicast(svc Service, group, member string, data []byte) error {
	return rc.request(&rcRequest{Op: rcUnicast, Group: group, Member: member, Service: svc, Data: data})
}

// Disconnect closes the session; the daemon announces the departure.
func (rc *RemoteClient) Disconnect() error {
	_ = rc.request(&rcRequest{Op: rcDisconnect})
	rc.shutdown()
	return nil
}
