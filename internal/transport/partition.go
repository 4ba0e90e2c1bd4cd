package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"codb/internal/msg"
)

// Partitioner wraps a Transport with a fault-injection seam for tests,
// stress runs, and the partition/heal benchmark: frames to or from a set of
// peers can be silently dropped (a network partition) per direction,
// without the underlying transport noticing.
//
// A partition here is *silent*, matching what a real partition looks like
// from the endpoints: outbound Sends to a blocked peer report success and
// discard the frame, and inbound envelopes from a blocked peer are dropped
// before the handler sees them. Neither side gets an error — only the
// absence of traffic (missed heartbeats, stranded acks) reveals the fault,
// which is exactly the signal the suspicion failure detector consumes.
// Connect attempts to a blocked peer do fail, as a dial into a partition
// would, but without touching the inner transport's dial-failure counters.
//
// To partition a pair of live nodes symmetrically, wrap both endpoints and
// block the opposite peer on each; heartbeats are written by the inner TCP
// transport below this wrapper, so only the receiving side's inbound drop
// silences them.
type Partitioner struct {
	tr Transport

	mu       sync.Mutex
	blockTo  map[string]bool
	blockFrm map[string]bool

	handlerMu sync.Mutex
	handler   Handler

	droppedOut atomic.Uint64
	droppedIn  atomic.Uint64
}

// ErrPartitioned is returned by Connect for a peer the injector blocks.
var ErrPartitioned = fmt.Errorf("transport: injected partition")

// NewPartitioner wraps tr. It installs itself as tr's handler, so it must
// wrap the transport before the peer is constructed on top of it.
func NewPartitioner(tr Transport) *Partitioner {
	f := &Partitioner{
		tr:       tr,
		blockTo:  make(map[string]bool),
		blockFrm: make(map[string]bool),
	}
	tr.SetHandler(f.deliver)
	return f
}

// Underlying returns the wrapped transport.
func (f *Partitioner) Underlying() Transport { return f.tr }

// Partition blocks both directions to and from the named peers.
func (f *Partitioner) Partition(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockTo[p] = true
		f.blockFrm[p] = true
	}
}

// Heal unblocks both directions for the named peers; with no arguments it
// heals everything.
func (f *Partitioner) Heal(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(peers) == 0 {
		f.blockTo = make(map[string]bool)
		f.blockFrm = make(map[string]bool)
		return
	}
	for _, p := range peers {
		delete(f.blockTo, p)
		delete(f.blockFrm, p)
	}
}

// BlockOutbound blocks only frames sent to the named peers.
func (f *Partitioner) BlockOutbound(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockTo[p] = true
	}
}

// BlockInbound blocks only frames received from the named peers.
func (f *Partitioner) BlockInbound(peers ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		f.blockFrm[p] = true
	}
}

// Dropped reports frames discarded by the injector (outbound, inbound).
func (f *Partitioner) Dropped() (out, in uint64) {
	return f.droppedOut.Load(), f.droppedIn.Load()
}

func (f *Partitioner) blockedTo(peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blockTo[peer]
}

// deliver is the inner transport's handler: it applies the inbound drop,
// then forwards to the handler installed via SetHandler.
func (f *Partitioner) deliver(env msg.Envelope) {
	f.mu.Lock()
	drop := f.blockFrm[env.From]
	f.mu.Unlock()
	if drop {
		f.droppedIn.Add(1)
		return
	}
	f.handlerMu.Lock()
	h := f.handler
	f.handlerMu.Unlock()
	if h != nil {
		h(env)
	}
}

// Self implements Transport.
func (f *Partitioner) Self() string { return f.tr.Self() }

// SetHandler implements Transport: h receives the envelopes that survive
// the inbound filter.
func (f *Partitioner) SetHandler(h Handler) {
	f.handlerMu.Lock()
	defer f.handlerMu.Unlock()
	f.handler = h
}

// Connect implements Transport: a dial into a partition fails without
// reaching the inner transport.
func (f *Partitioner) Connect(node, addr string) error {
	if f.blockedTo(node) {
		return fmt.Errorf("connect to %s: %w", node, ErrPartitioned)
	}
	return f.tr.Connect(node, addr)
}

// Send implements Transport: frames to a blocked peer vanish silently.
func (f *Partitioner) Send(to string, p msg.Payload) error {
	if f.blockedTo(to) {
		f.droppedOut.Add(1)
		return nil
	}
	return f.tr.Send(to, p)
}

// Disconnect implements Transport.
func (f *Partitioner) Disconnect(node string) { f.tr.Disconnect(node) }

// Peers implements Transport. Partitioned peers stay listed: the endpoints
// of a real partition keep their sockets until a timeout notices.
func (f *Partitioner) Peers() []string { return f.tr.Peers() }

// Close implements Transport.
func (f *Partitioner) Close() error { return f.tr.Close() }

// ConnectAddr implements AddrDialer when the inner transport does.
func (f *Partitioner) ConnectAddr(addr string) (string, error) {
	d, ok := f.tr.(AddrDialer)
	if !ok {
		return "", fmt.Errorf("transport: %T cannot dial by address", f.tr)
	}
	return d.ConnectAddr(addr)
}

// SetPipeDownHandler implements PipeNotifier when the inner transport does.
func (f *Partitioner) SetPipeDownHandler(fn func(peer string)) {
	if n, ok := f.tr.(PipeNotifier); ok {
		n.SetPipeDownHandler(fn)
	}
}
