package transport

import (
	"fmt"
	"sync"
)

// MemNetwork is an in-memory Network: a reliable FIFO fabric between the
// endpoints attached to it, with no faults of its own. It is the testbed
// substitute; tests inject partitions, crashes, drops and latency by
// wrapping it in faultnet.
type MemNetwork struct {
	mu    sync.Mutex
	nodes map[string]*memNode
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{nodes: make(map[string]*memNode)}
}

var _ Network = (*MemNetwork)(nil)

// Attach implements Network. A name becomes attachable again once the
// endpoint holding it is closed.
func (n *MemNetwork) Attach(name string, h Handler) (Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAttached, name)
	}
	node := &memNode{
		net:     n,
		name:    name,
		handler: h,
		queue:   make(chan delivery, 4096),
		done:    make(chan struct{}),
	}
	n.nodes[name] = node
	go node.run()
	return node, nil
}

type delivery struct {
	from string
	data []byte
}

type memNode struct {
	net     *MemNetwork
	name    string
	handler Handler

	queue chan delivery
	done  chan struct{}
	once  sync.Once
}

var _ Node = (*memNode)(nil)

func (m *memNode) Name() string { return m.name }

// Send implements Node. A send to a name nobody holds is a silent drop. A
// closed endpoint gets ErrClosed even once its name is attached again:
// the check is on this handle, not the name.
func (m *memNode) Send(to string, data []byte) error {
	n := m.net
	n.mu.Lock()
	if n.nodes[m.name] != m {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.nodes[to]
	n.mu.Unlock()
	if !ok {
		return nil
	}

	// Copy: the sender may reuse its buffer.
	cp := make([]byte, len(data))
	copy(cp, data)
	select {
	case dst.queue <- delivery{from: m.name, data: cp}:
	case <-dst.done:
	}
	return nil
}

// Close detaches the endpoint and drops its queued deliveries. The name is
// released only if this handle still holds it, so closing a stale handle
// leaves a re-attached endpoint alone.
func (m *memNode) Close() error {
	n := m.net
	n.mu.Lock()
	if n.nodes[m.name] == m {
		delete(n.nodes, m.name)
	}
	n.mu.Unlock()
	m.once.Do(func() { close(m.done) })
	return nil
}

// run delivers queued messages in order.
func (m *memNode) run() {
	for {
		select {
		case <-m.done:
			return
		case d := <-m.queue:
			m.handler.HandleMessage(d.from, d.data)
		}
	}
}
