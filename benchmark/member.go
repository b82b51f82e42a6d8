package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/flush"
	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/transport"
	"repro/securespread"
)

// Daemon timers of every topology the benchmark builds (as internal/bench).
const (
	heartbeat    = 5 * time.Millisecond
	suspectAfter = 250 * time.Millisecond
	daemonCount  = 3 // the paper's testbed shape
)

func daemonConfig() spread.Config {
	return spread.Config{Heartbeat: heartbeat, SuspectAfter: suspectAfter}
}

// topology is three in-process daemons, over the in-memory network or over
// loopback TCP. nproc is 2 here, so "remote" means a real socket on
// 127.0.0.1 inside one process, not a second machine.
type topology struct {
	daemons []*spread.Daemon
	// clientAddrs[i] is daemon i's remote-client listener (TCP only).
	clientAddrs []string
}

func newTopology(tcp bool) (*topology, error) {
	t := &topology{}
	if !tcp {
		c, err := securespread.NewLocalClusterConfig(daemonCount, daemonConfig())
		if err != nil {
			return nil, err
		}
		t.daemons = c.Daemons
		return t, nil
	}
	names := make([]string, daemonCount)
	addrs := map[string]string{}
	for i := range names {
		names[i] = fmt.Sprintf("d%02d", i)
		addrs[names[i]] = "127.0.0.1:0"
	}
	network := transport.NewTCPNetwork(addrs)
	for _, name := range names {
		d, err := spread.NewDaemon(name, names, network, daemonConfig())
		if err != nil {
			t.stop()
			return nil, err
		}
		t.daemons = append(t.daemons, d)
		ln, err := d.ListenClients("127.0.0.1:0")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.clientAddrs = append(t.clientAddrs, ln.Addr().String())
	}
	if err := t.waitStable(10 * time.Second); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// waitStable polls until every daemon reports the same full view.
func (t *topology) waitStable(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ref, ok := t.daemons[0].CurrentView()
		agreed := ok && len(ref.Members) == len(t.daemons)
		for _, d := range t.daemons[1:] {
			v, ok := d.CurrentView()
			agreed = agreed && ok && v.ID == ref.ID
		}
		if agreed {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemons did not agree on a view within %v", timeout)
}

func (t *topology) stop() {
	for _, d := range t.daemons {
		d.Stop() // also closes the daemon's client listener
	}
}

// counters adds up the daemons' registry counters by name.
func (t *topology) counters() map[string]int64 {
	sum := map[string]int64{}
	for _, d := range t.daemons {
		for name, v := range d.Obs().Reg.Snapshot().Counters {
			sum[name] += v
		}
	}
	return sum
}

// sendqDropped reads the TCP transport's drop-oldest counters (always zero
// on the in-memory network).
func (t *topology) sendqDropped() int64 { return t.counters()["transport_sendq_dropped"] }

// retained reads the daemons' recovery-buffer gauges and returns the
// largest.
func (t *topology) retained() int64 {
	var most int64
	for _, d := range t.daemons {
		most = max(most, d.Obs().Reg.Gauge("spread_retained").Value())
	}
	return most
}

// Event kinds a member reports, in the same form at every rung of the
// stack ladder.
const (
	evData = iota + 1
	evView
)

type event struct {
	kind    int
	data    []byte // evData
	members int    // evView: size of the installed view
	epoch   uint64 // evView: key epoch, or the view sequence below core
}

// member is one group member at some rung of the stack: the same loops
// drive raw spread clients, flush connections and secure sessions, which is
// what makes rung-to-rung differences a layer's self cost.
type member interface {
	Name() string
	Join(group string) error
	Leave(group string) error
	// Send multicasts p AGREED to the group. p may be reused after Send.
	Send(group string, p []byte) error
	// Drain hands every event to fn until the connection closes.
	Drain(fn func(event))
	Disconnect() error
}

// stack connects members at one rung.
type stack struct {
	name    string
	connect func(t *topology, daemon int, user string) (member, error)
}

// secureStack is the full system through the public API; remote selects the
// TCP client leg (ConnectRemote) instead of an in-process client.
func secureStack(proto, suite string, bits int, remote bool) stack {
	return stack{
		name: "core/" + suite,
		connect: func(t *topology, daemon int, user string) (member, error) {
			var s *securespread.Session
			var err error
			if remote {
				s, err = securespread.ConnectRemote(t.clientAddrs[daemon], user, securespread.WithModulusBits(bits))
			} else {
				s, err = securespread.Connect(t.daemons[daemon], user, securespread.WithModulusBits(bits))
			}
			if err != nil {
				return nil, err
			}
			return secureMember{s: s, proto: proto, suite: suite}, nil
		},
	}
}

type secureMember struct {
	s            *securespread.Session
	proto, suite string
}

func (m secureMember) Name() string                      { return m.s.Name() }
func (m secureMember) Join(group string) error           { return m.s.JoinWith(group, m.proto, m.suite) }
func (m secureMember) Leave(group string) error          { return m.s.Leave(group) }
func (m secureMember) Send(group string, p []byte) error { return m.s.Multicast(group, p) }
func (m secureMember) Disconnect() error                 { return m.s.Disconnect() }

func (m secureMember) Drain(fn func(event)) {
	for ev := range m.s.Events() {
		switch e := ev.(type) {
		case securespread.Message:
			fn(event{kind: evData, data: e.Data})
		case securespread.SecureView:
			fn(event{kind: evView, members: len(e.Members), epoch: e.Epoch})
		}
	}
}

// flushStack is View Synchrony with no key agreement: the application
// acknowledges every flush request at once.
func flushStack(sc *obs.Scope) stack {
	return stack{
		name: "flush",
		connect: func(t *topology, daemon int, user string) (member, error) {
			c, err := t.daemons[daemon].Connect(user)
			if err != nil {
				return nil, err
			}
			return flushMember{f: flush.WrapScope(c, sc)}, nil
		},
	}
}

type flushMember struct{ f *flush.Conn }

func (m flushMember) Name() string             { return m.f.Name() }
func (m flushMember) Join(group string) error  { return m.f.Join(group) }
func (m flushMember) Leave(group string) error { return m.f.Leave(group) }
func (m flushMember) Disconnect() error        { return m.f.Disconnect() }
func (m flushMember) Send(group string, p []byte) error {
	return m.f.Multicast(spread.Agreed, group, p)
}

func (m flushMember) Drain(fn func(event)) {
	for ev := range m.f.Events() {
		switch e := ev.(type) {
		case flush.FlushRequest:
			// Only fails when no flush is pending any more.
			_ = m.f.FlushOK(e.Group)
		case flush.Data:
			fn(event{kind: evData, data: e.Data})
		case flush.View:
			fn(event{kind: evView, members: len(e.Info.Members), epoch: e.Info.ID.Seq})
		}
	}
}

// spreadStack is a raw group-communication client; remote selects the gob
// TCP client leg on a daemon's client listener.
func spreadStack(remote bool) stack {
	name := "spread"
	if remote {
		name = "spread/remote"
	}
	return stack{
		name: name,
		connect: func(t *topology, daemon int, user string) (member, error) {
			var c spread.Endpoint
			var err error
			if remote {
				c, err = spread.RemoteConnect(t.clientAddrs[daemon], user)
			} else {
				c, err = t.daemons[daemon].Connect(user)
			}
			if err != nil {
				return nil, err
			}
			return spreadMember{c: c}, nil
		},
	}
}

type spreadMember struct{ c spread.Endpoint }

func (m spreadMember) Name() string             { return m.c.Name() }
func (m spreadMember) Join(group string) error  { return m.c.Join(group) }
func (m spreadMember) Leave(group string) error { return m.c.Leave(group) }
func (m spreadMember) Disconnect() error        { return m.c.Disconnect() }

// Send copies p: an in-process client queues the slice itself and loops it
// back to local members.
func (m spreadMember) Send(group string, p []byte) error {
	return m.c.Multicast(spread.Agreed, group, slices.Clone(p))
}

func (m spreadMember) Drain(fn func(event)) {
	for ev := range m.c.Events() {
		switch e := ev.(type) {
		case spread.DataEvent:
			fn(event{kind: evData, data: e.Data})
		case spread.ViewEvent:
			fn(event{kind: evView, members: len(e.Members), epoch: e.ID.Seq})
		}
	}
}
