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
// Outbox type for the flush and backpressure policy.
//
// Inbound, no transport queues anything: it calls the handler on the
// goroutine that received the envelope — a TCP pipe's read loop, or the
// sender's own goroutine inside Bus.Send. Batches are unpacked before
// delivery, so a handler always sees one envelope per payload, in
// per-sender FIFO order, whether or not the sender batches. A handler must
// therefore never block: the peer layer puts each envelope into its actor's
// unbounded event queue and returns.
package transport

import (
	"errors"

	"codb/internal/msg"
)

// Handler consumes inbound envelopes. It is called on the receiving
// goroutine (a TCP pipe's read loop, or the sender's goroutine on the Bus),
// in order per sender; calls for different senders may run concurrently. It
// must not block: a blocked handler stalls its pipe, or its sender.
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
// synchronously. On TCP a failed read is reported by the pipe's own read
// loop, after the last envelope that loop delivered.
type PipeNotifier interface {
	SetPipeDownHandler(func(peer string))
}

// ErrUnknownPeer is returned by Send when no pipe to the peer exists.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")
