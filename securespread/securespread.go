// Package securespread is the public API of the secure group communication
// system: a Go reproduction of "Secure Group Communication in Asynchronous
// Networks with Failures: Integration and Experiments" (ICDCS 2000).
//
// The stack has four layers, mirroring Figure 2 of the paper:
//
//	application
//	   |  securespread.Session       (this package: secure groups API)
//	   |  secure group layer         (key agreement x VS integration)
//	   |  flush layer                (View Synchrony)
//	   |  spread daemons             (membership, ordering, groups)
//
// A process connects to a daemon, joins named groups, and picks — per
// group, at run time — a key agreement module ("cliques" for distributed
// contributory group Diffie-Hellman, "ckd" for the centralized baseline)
// and a cipher suite (Blowfish-CBC as in the paper, AES-CTR, or an
// authenticate-only null suite). Every membership change (join, leave,
// disconnect, partition, merge) re-keys the group before the SecureView
// event announces it as operational; application data is encrypted and
// authenticated under the current group secret.
//
// Quickstart:
//
//	cluster, _ := securespread.NewLocalCluster(3)
//	defer cluster.Stop()
//	alice, _ := securespread.Connect(cluster.Daemons[0], "alice")
//	_ = alice.Join("chat")
//	for ev := range alice.Events() {
//	    switch e := ev.(type) {
//	    case securespread.SecureView:
//	        _ = alice.Multicast("chat", []byte("hello, secure group"))
//	    case securespread.Message:
//	        fmt.Printf("%s: %s\n", e.Sender, e.Data)
//	    }
//	}
package securespread

import (
	"time"

	_ "repro/internal/ckd" // register the centralized key distribution module
	_ "repro/internal/cliques"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/spread"
	"repro/internal/transport"
)

// Key agreement protocol names, selectable per group.
const (
	// ProtoCliques is distributed contributory key agreement (group
	// Diffie-Hellman, the Cliques protocol suite).
	ProtoCliques = "cliques"
	// ProtoCKD is simple centralized key distribution (the paper's
	// Appendix A baseline).
	ProtoCKD = "ckd"
)

// Cipher suite names, selectable per group.
const (
	// SuiteBlowfish is Blowfish-CBC with HMAC-SHA256 (the paper's bulk
	// cipher).
	SuiteBlowfish = crypt.SuiteBlowfish
	// SuiteAESCTR is AES-128-CTR (stream style, no padding) with
	// HMAC-SHA256.
	SuiteAESCTR = crypt.SuiteAESCTR
	// SuiteNull authenticates but does not encrypt (for measuring
	// overhead).
	SuiteNull = crypt.SuiteNull
)

// Event types delivered on a session's Events channel.
type (
	// Event is any secure-layer event.
	Event = core.Event
	// SecureView announces a re-keyed, operational group view.
	SecureView = core.SecureView
	// Message is a decrypted, authenticated group message.
	Message = core.Message
	// SelfLeave confirms this member's own departure.
	SelfLeave = core.SelfLeave
	// Warning reports a dropped message or protocol anomaly.
	Warning = core.Warning
)

// Daemon is a group communication daemon.
type Daemon = spread.Daemon

// DaemonConfig tunes daemon protocol timers; the zero value gives sensible
// defaults.
type DaemonConfig = spread.Config

// Cluster is a set of daemons over an in-memory network — the testbed
// substitute. Its Net field injects faults (partitions, crashes, drops,
// latency) through faultnet.
type Cluster = spread.Cluster

// NewLocalCluster starts n daemons on an in-memory network and waits for
// them to form a common view. It is the quickest way to a working system.
func NewLocalCluster(n int) (*Cluster, error) {
	return spread.NewCluster(n, spread.Config{})
}

// NewLocalClusterConfig is NewLocalCluster with explicit timers.
func NewLocalClusterConfig(n int, cfg DaemonConfig) (*Cluster, error) {
	return spread.NewCluster(n, cfg)
}

// StartTCPDaemon starts a daemon communicating over real TCP. addrs maps
// every daemon name (including this one) to its host:port listen address,
// like a Spread segment configuration.
func StartTCPDaemon(name string, addrs map[string]string, cfg DaemonConfig) (*Daemon, error) {
	net := transport.NewTCPNetwork(addrs)
	peers := make([]string, 0, len(addrs))
	for peer := range addrs {
		peers = append(peers, peer)
	}
	return spread.NewDaemon(name, peers, net, cfg)
}

// SessionOption configures a session.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	dhBits      int
	autoRefresh time.Duration
}

// WithModulusBits selects the Diffie-Hellman modulus size (512, 768, 1024
// or 2048 bits; default 512, as in the paper's experiments).
func WithModulusBits(bits int) SessionOption {
	return func(c *sessionConfig) { c.dhBits = bits }
}

// WithAutoRefresh rotates the secret of every group this session controls
// once the key is older than the interval (periodic key refresh).
func WithAutoRefresh(interval time.Duration) SessionOption {
	return func(c *sessionConfig) { c.autoRefresh = interval }
}

// Session is one process's secure group connection.
type Session struct {
	conn *core.Conn
}

// Connect attaches a new client session to a daemon in the same process.
func Connect(d *Daemon, user string, opts ...SessionOption) (*Session, error) {
	return connect(opts, func() (spread.Endpoint, error) { return d.Connect(user) })
}

// ConnectRemote attaches a session to a daemon over TCP. The daemon must
// be serving clients (Daemon.ListenClients / spreadd -client-listen).
func ConnectRemote(addr, user string, opts ...SessionOption) (*Session, error) {
	return connect(opts, func() (spread.Endpoint, error) { return spread.RemoteConnect(addr, user) })
}

func connect(opts []SessionOption, dial func() (spread.Endpoint, error)) (*Session, error) {
	cfg := sessionConfig{dhBits: 512}
	for _, o := range opts {
		o(&cfg)
	}
	group, err := dh.GroupForBits(cfg.dhBits)
	if err != nil {
		return nil, err
	}
	client, err := dial()
	if err != nil {
		return nil, err
	}
	copts := []core.Option{core.WithDHGroup(group)}
	if cfg.autoRefresh > 0 {
		copts = append(copts, core.WithAutoRefresh(cfg.autoRefresh))
	}
	return &Session{conn: core.New(client, copts...)}, nil
}

// Name returns the session's unique member name ("user#daemon").
func (s *Session) Name() string { return s.conn.Name() }

// Events returns the secure event stream. The application must consume it.
func (s *Session) Events() <-chan Event { return s.conn.Events() }

// Join joins a secure group with the default configuration (Cliques key
// agreement, Blowfish-CBC). Use JoinWith to choose modules.
func (s *Session) Join(group string) error {
	return s.conn.Join(group, ProtoCliques, SuiteBlowfish)
}

// JoinWith joins a secure group with an explicit key agreement protocol
// and cipher suite — the paper's run-time module selection.
func (s *Session) JoinWith(group, protocol, suite string) error {
	return s.conn.Join(group, protocol, suite)
}

// Leave departs from a group voluntarily; a SelfLeave event confirms it.
func (s *Session) Leave(group string) error { return s.conn.Leave(group) }

// Multicast encrypts data under the group's current secret and sends it to
// all members.
func (s *Session) Multicast(group string, data []byte) error {
	return s.conn.Multicast(group, data)
}

// KeyRefresh requests a new group secret without a membership change.
func (s *Session) KeyRefresh(group string) error { return s.conn.KeyRefresh(group) }

// GroupState reports the secured membership and key epoch of a group.
func (s *Session) GroupState(group string) (members []string, epoch uint64, secured bool) {
	return s.conn.GroupState(group)
}

// Receive blocks for the next event, up to timeout (zero = forever).
func (s *Session) Receive(timeout time.Duration) (Event, bool) {
	if timeout <= 0 {
		ev, ok := <-s.conn.Events()
		return ev, ok
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case ev, ok := <-s.conn.Events():
		return ev, ok
	case <-t.C:
		return nil, false
	}
}

// Disconnect closes the session; remaining group members observe a
// disconnect membership change and re-key.
func (s *Session) Disconnect() error { return s.conn.Disconnect() }
