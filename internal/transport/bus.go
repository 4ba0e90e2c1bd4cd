package transport

import (
	"fmt"
	"sync"

	"codb/internal/msg"
)

// Bus is the in-process transport: a registry of nodes that deliver by
// calling the receiver's handler on the sender's goroutine, inside Send. It
// simulates a whole P2P network inside one process, which is how the test
// suite and the benchmark harness run multi-peer topologies on one box.
// Faults are injected by wrapping a node's Transport (Partitioner), not by
// the bus.
type Bus struct {
	mu    sync.Mutex
	nodes map[string]*busNode
}

type busNode struct {
	bus     *Bus
	name    string
	handler Handler
	pipes   map[string]bool
	closed  bool
	mu      sync.Mutex
}

// NewBus returns an empty in-process network.
func NewBus() *Bus {
	return &Bus{nodes: make(map[string]*busNode)}
}

// Join registers a node and returns its Transport. Node names must be
// unique on the bus.
func (b *Bus) Join(name string) (Transport, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.nodes[name]; dup {
		return nil, fmt.Errorf("transport: node %q already on the bus", name)
	}
	n := &busNode{bus: b, name: name, pipes: make(map[string]bool)}
	b.nodes[name] = n
	return n, nil
}

// MustJoin is Join panicking on error.
func (b *Bus) MustJoin(name string) Transport {
	tr, err := b.Join(name)
	if err != nil {
		panic(err)
	}
	return tr
}

// Nodes lists every node on the bus (the global directory; in-process
// discovery is trivially complete, like a JXTA rendezvous that knows
// everyone).
func (b *Bus) Nodes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.nodes))
	for n := range b.nodes {
		out = append(out, n)
	}
	return out
}

func (b *Bus) lookup(name string) *busNode {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nodes[name]
}

func (b *Bus) remove(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.nodes, name)
}

// Self implements Transport.
func (n *busNode) Self() string { return n.name }

// SetHandler implements Transport.
func (n *busNode) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// Connect implements Transport; addr is ignored (the bus registry resolves
// names).
func (n *busNode) Connect(node, addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if n.bus.lookup(node) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, node)
	}
	n.pipes[node] = true
	return nil
}

// Send implements Transport: the receiver's handler runs here, on the
// caller's goroutine, once per payload. Batch envelopes (msg.Batch, produced
// by the Outbox) are unpacked: the receiver gets one envelope per packed
// payload, in order, and fault injection decides per payload.
func (n *busNode) Send(to string, p msg.Payload) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	piped := n.pipes[to]
	n.mu.Unlock()
	if !piped {
		return fmt.Errorf("%w: %s (no pipe)", ErrUnknownPeer, to)
	}
	target := n.bus.lookup(to)
	if target == nil {
		return fmt.Errorf("%w: %s (left the network)", ErrUnknownPeer, to)
	}
	target.mu.Lock()
	h, closed := target.handler, target.closed
	target.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: %s (closed)", ErrUnknownPeer, to)
	}
	payloads := []msg.Payload{p}
	if b, ok := p.(*msg.Batch); ok {
		payloads = b.Payloads
	}
	for _, pl := range payloads {
		if h != nil {
			h(msg.Envelope{From: n.name, Payload: pl})
		}
	}
	return nil
}

// Disconnect implements Transport.
func (n *busNode) Disconnect(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.pipes, node)
}

// Peers implements Transport.
func (n *busNode) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.pipes))
	for p := range n.pipes {
		out = append(out, p)
	}
	return out
}

// Close implements Transport.
func (n *busNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.bus.remove(n.name)
	return nil
}
