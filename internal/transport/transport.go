// Package transport provides the daemon-to-daemon messaging substrate for
// the group communication system: reliable FIFO links between named
// endpoints.
//
// Two implementations are provided. MemNetwork is a fault-free in-memory
// FIFO fabric — the testbed substitute used by the test suite and the
// benchmark harness. The TCP transport in tcp.go runs real daemons across
// machines. Faults (partitions, crashes, drops, latency) are injected over
// either one by the faultnet sub-package, and only there.
//
// The contract both implementations honor: while two endpoints are mutually
// reachable, messages between them are delivered reliably and in FIFO order
// per sender; when they are not, messages are silently dropped (the
// membership layer above detects the failure through heartbeats, as in the
// paper's fail-stop / network-partition model).
package transport

import (
	"errors"

	"repro/internal/obs"
)

// Errors returned by transports.
var (
	ErrClosed   = errors.New("transport: endpoint closed")
	ErrAttached = errors.New("transport: endpoint name already attached")
)

// Handler receives inbound messages on an endpoint. Implementations must be
// safe for concurrent calls and must not block for long: delivery for a
// link stalls while the handler runs.
type Handler interface {
	HandleMessage(from string, data []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from string, data []byte)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from string, data []byte) { f(from, data) }

// PeerWatcher is an optional Handler extension. Transports that supervise
// their links (the TCP transport) report outbound link transitions to
// handlers implementing it: PeerDown after the supervisor gives up dialing
// a peer (DownAfter consecutive failures), PeerUp when a later dial
// succeeds. Calls arrive on transport goroutines and must not block;
// events are advisory — the membership layer keeps heartbeats as the
// source of truth and uses these only to react faster.
type PeerWatcher interface {
	PeerUp(peer string)
	PeerDown(peer string)
}

// MetricsProvider is an optional Handler extension: transports that emit
// metrics (dial attempts, queue drops, link transitions) register their
// instruments in the provided registry instead of obs.Default, so per-node
// registries in multi-daemon tests stay isolated.
type MetricsProvider interface {
	ObsRegistry() *obs.Registry
}

// PeerStatus is a point-in-time view of one supervised outbound link:
// whether the supervisor currently believes the peer reachable, and how
// much is queued behind the link. Queue depth on an up link is transient;
// a deep queue on a down link is frames waiting to be dropped.
type PeerStatus struct {
	Peer        string `json:"peer"`
	Up          bool   `json:"up"`
	QueueFrames int    `json:"queue_frames"`
	QueueBytes  int    `json:"queue_bytes"`
}

// StatusReporter is an optional Node extension: transports that supervise
// their links (the TCP transport) expose every known outbound peer's link
// state for readiness probes and flight-recorder state dumps. Transports
// without per-link state (the in-memory network) simply don't implement
// it.
type StatusReporter interface {
	PeerStatus() []PeerStatus
}

// Node is an attached endpoint that can send to peers by name.
type Node interface {
	// Name returns the endpoint's name.
	Name() string
	// Send queues data for delivery to the named peer. Unreachable or
	// unknown peers cause a silent drop — never an error — matching the
	// asynchronous-network model where senders cannot distinguish slow
	// from dead.
	Send(to string, data []byte) error
	// Close detaches the endpoint.
	Close() error
}

// Network attaches endpoints.
type Network interface {
	// Attach registers an endpoint and starts delivering inbound
	// messages to h.
	Attach(name string, h Handler) (Node, error)
}
