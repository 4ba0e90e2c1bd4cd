// Package transport provides the peer-to-peer substrate coDB builds on —
// the role JXTA plays in the paper: peer identity, pipes (point-to-point
// message links), message delivery, and decentralised peer discovery.
//
// Two implementations share one interface: Bus (in-process, for simulating
// whole networks inside one OS process, as tests and benchmarks do) and TCP
// (versioned binary frames over real sockets — see internal/wire — for
// multi-process deployments). Peer logic is identical over both.
//
// Outbox wraps either implementation in an asynchronous per-destination
// outbound pipeline: Send becomes an enqueue, one writer goroutine per pipe
// drains its queue, and queued payloads for the same destination are
// coalesced into msg.Batch envelopes (one frame on the wire). See the
// Outbox type for the flush and backpressure policy. Receiving transports
// unpack batches before delivery, so handlers always see one envelope per
// payload, in per-sender FIFO order, whether or not the sender batches.
package transport

import (
	"errors"
	"sync"

	"codb/internal/msg"
)

// Handler consumes inbound envelopes. Implementations call it sequentially
// per receiving node (one delivery goroutine per node), so peer actors can
// treat it as their serial event source.
type Handler func(env msg.Envelope)

// Transport is a node's connection to the network.
type Transport interface {
	// Self returns this node's name.
	Self() string
	// SetHandler installs the inbound message consumer. Must be called
	// before the first Send/Connect.
	SetHandler(h Handler)
	// Connect establishes (or re-uses) a pipe to the named peer. For TCP,
	// addr is the peer's listen address; the Bus resolves names itself
	// and ignores addr.
	Connect(node, addr string) error
	// Send delivers an envelope payload to a connected peer.
	Send(to string, p msg.Payload) error
	// Disconnect drops the pipe to the named peer (no-op if absent).
	Disconnect(node string)
	// Peers lists currently connected peers (the node's pipes).
	Peers() []string
	// Close tears down all pipes and stops delivery.
	Close() error
}

// AddrDialer is implemented by transports that can establish a pipe to an
// address without knowing the remote's name in advance — the first dial of
// a runtime join, where the joiner knows only the admitting peer's address.
// The remote's name is learned from its handshake and returned.
type AddrDialer interface {
	ConnectAddr(addr string) (node string, err error)
}

// PipeNotifier is implemented by transports that can asynchronously report
// a pipe failure (e.g. TCP detecting a dead connection in its read loop).
// Asynchronous senders need this: a write into a connection the far side
// has already abandoned can succeed at the OS level, so send errors alone
// do not account for every lost message. The handler is invoked from a
// transport goroutine once per torn-down pipe (deliberate Disconnect and
// Close excluded) and must not block or call back into the transport
// synchronously.
type PipeNotifier interface {
	SetPipeDownHandler(func(peer string))
}

// ErrUnknownPeer is returned by Send when no pipe to the peer exists.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// mailbox is an unbounded FIFO queue with a blocking receiver, so that
// senders never block (preventing peer-to-peer deadlock) while each
// receiver processes sequentially.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []msg.Envelope
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues; returns false when the mailbox is closed.
func (m *mailbox) put(e msg.Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.items = append(m.items, e)
	m.cond.Signal()
	return true
}

// take blocks until an item arrives or the mailbox closes.
func (m *mailbox) take() (msg.Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return msg.Envelope{}, false
	}
	e := m.items[0]
	m.items = m.items[1:]
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}
