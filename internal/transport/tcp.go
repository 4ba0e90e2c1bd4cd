package transport

import (
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"codb/internal/msg"
	"codb/internal/wire"
)

// TCP is the socket transport: one listener per node, one TCP connection
// per pipe, versioned binary frames (see internal/wire). The handshake is a
// Hello frame in each direction's first message slot — node name plus
// supported protocol version range — after which both sides exchange
// envelope frames at the negotiated version. Either side may dial; a second
// connection to the same peer replaces the first.
//
// Frames are individually decodable: the header carries the payload type
// tag and a body CRC, and bodies are the internal/msg binary encodings.
// A frame with the wrong magic, version, type or CRC still tears the pipe
// down — the peer layer re-establishes pipes and compensates the
// termination detector for lost messages — but unlike the earlier gob
// streams, no per-connection codec state exists to desynchronise.
//
// Each pipe's read loop calls the handler itself, so deliveries from one
// sender are ordered, and a read failure's pipe-down follows the pipe's
// last envelope.
// Batch envelopes (msg.Batch, produced by the Outbox) are unpacked here on
// receive: the handler sees one envelope per packed payload, in order.
type TCP struct {
	self string
	ln   net.Listener

	mu      sync.Mutex
	conns   map[string]*tcpConn
	dialing map[string]chan struct{} // per-node in-flight Connect gate
	closed  bool
	done    chan struct{} // closed by Close; aborts backoff sleeps and tickers
	wg      sync.WaitGroup
	hbOnce  sync.Once

	handlerMu sync.Mutex
	handler   Handler
	pipeDown  func(peer string)

	frames    atomic.Uint64 // envelope frames written (handshake excluded)
	bytes     atomic.Uint64 // envelope frame bytes written, headers included
	dialFails atomic.Uint64 // outbound dials that failed after every retry
}

// tcpConn is one pipe's write side: the connection, the version negotiated
// in its handshake, and a reusable frame buffer. writeMu serialises writers
// (with the Outbox there is exactly one writer goroutine per pipe, so it is
// uncontended).
type tcpConn struct {
	c       net.Conn
	version byte
	inbound bool // accepted from the peer's dial rather than our own
	writeMu sync.Mutex
	buf     []byte
}

// maxFrame bounds a frame body, mirroring the wire package's limit.
const maxFrame = wire.MaxFrame

// handshakeTimeout bounds the hello exchange on a new connection. Without
// it a silent or stalled remote would park the dialer (and the peer actor
// loop behind it) in a handshake read forever; established connections
// carry no deadline — idle pipes are legal.
const handshakeTimeout = 10 * time.Second

// Outbound dials retry briefly with doubling backoff before giving up:
// runtime join and rejoin race the remote's listener coming up, and a
// connection-refused on loopback fails instantly, so a couple of retries
// absorb the race without meaningfully stalling the caller.
const (
	dialAttempts    = 3
	dialBackoffBase = 25 * time.Millisecond
)

// bufRetain caps the write buffer kept between frames on a pipe. The buffer
// grows to fit whatever frame is in flight (up to maxFrame), but retaining a
// one-off 64 MiB encoding for the lifetime of the pipe would pin that much
// memory per connection; anything beyond this cap is released after the
// write.
const bufRetain = 64 << 10

// hello returns the handshake frame payload this node offers.
func (t *TCP) hello() wire.Hello {
	return wire.Hello{Name: t.self, Min: wire.MinVersion, Max: wire.MaxVersion}
}

// NewTCP starts a node listening on addr (use "127.0.0.1:0" for an
// ephemeral port; Addr reports the bound address).
func NewTCP(self, addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCP{
		self:    self,
		ln:      ln,
		conns:   make(map[string]*tcpConn),
		dialing: make(map[string]chan struct{}),
		done:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's address, for other peers to dial.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Self implements Transport.
func (t *TCP) Self() string { return t.self }

// FramesSent returns the number of envelope frames this node has written to
// its pipes (handshake frames excluded) — the frames-on-the-wire metric of
// the batching benchmarks.
func (t *TCP) FramesSent() uint64 { return t.frames.Load() }

// BytesSent returns the envelope frame bytes written, headers included.
func (t *TCP) BytesSent() uint64 { return t.bytes.Load() }

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.handlerMu.Lock()
	defer t.handlerMu.Unlock()
	t.handler = h
}

// SetPipeDownHandler implements PipeNotifier.
func (t *TCP) SetPipeDownHandler(fn func(peer string)) {
	t.handlerMu.Lock()
	defer t.handlerMu.Unlock()
	t.pipeDown = fn
}

// notifyPipeDown reports an involuntarily torn-down pipe.
func (t *TCP) notifyPipeDown(peer string) {
	t.handlerMu.Lock()
	fn := t.pipeDown
	t.handlerMu.Unlock()
	if fn != nil {
		fn(peer)
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serve(c)
		}()
	}
}

// serve performs the inbound handshake — read the dialer's hello, negotiate
// a version, answer with ours — and runs the read loop. A hello we cannot
// parse or a version range we cannot meet closes the connection before a
// pipe ever exists, so no pipe-down fires.
//
// The pipe is registered before the answer goes out: the answer is what lets
// the dialer's Connect return, and from that moment the dialer may expect
// this end to know it (a reply sent the other way must not meet
// ErrUnknownPeer). The conn's write lock is held across both steps, so a
// Send that finds the fresh pipe queues behind the hello instead of
// overtaking it.
func (t *TCP) serve(c net.Conn) {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	theirs, err := wire.ReadHello(c)
	if err != nil {
		c.Close()
		return
	}
	version, err := wire.Negotiate(t.hello(), theirs)
	if err != nil {
		c.Close()
		return
	}
	conn := &tcpConn{c: c, version: version, inbound: true}
	conn.writeMu.Lock()
	kept := t.register(theirs.Name, conn)
	err = wire.WriteHello(c, t.hello())
	c.SetDeadline(time.Time{})
	conn.writeMu.Unlock()
	switch {
	case !kept:
		// Lost a simultaneous-open tie-break. The dialer still got its
		// answer: it applies the same tie-break and drops this socket too.
		c.Close()
	case err != nil:
		// The dialer never saw a pipe: take ours back without a pipe-down.
		t.removeConn(theirs.Name, c)
	default:
		t.readLoop(theirs.Name, c, version)
	}
}

// register installs conn as the pipe to peer and reports whether it was
// kept; a conn that was not is the caller's to close.
//
// When a conn for the peer already exists in the OPPOSITE direction, the two
// ends dialed each other simultaneously (both redialing after a heal is the
// common case). Plain last-write-wins is a shootout: each end replaces and
// closes a different socket, the close each inflicts tears down the conn the
// other end kept, both pipes die, and the paced redials cross again one
// timeout later. Instead both ends apply the same tie-break — keep the
// socket initiated by the lexicographically smaller name — so a crossed pair
// deterministically converges on one surviving socket with no pipe-down.
// A same-direction duplicate is a genuine reconnect and replaces as before.
func (t *TCP) register(peer string, conn *tcpConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if old := t.conns[peer]; old != nil {
		loses := t.self > peer // our own dial loses when our name is larger
		if conn.inbound {
			loses = peer > t.self
		}
		if old.inbound != conn.inbound && loses {
			return false
		}
		old.c.Close()
	}
	t.conns[peer] = conn
	return true
}

// removeConn removes the pipe for peer if it is still connection c and
// closes c, reporting whether that took a pipe away from a live transport.
func (t *TCP) removeConn(peer string, c net.Conn) bool {
	t.mu.Lock()
	toreDown := false
	if cur := t.conns[peer]; cur != nil && cur.c == c {
		delete(t.conns, peer)
		toreDown = true
	}
	closed := t.closed
	t.mu.Unlock()
	c.Close()
	return toreDown && !closed
}

// dropConn removes the pipe for peer if it is still connection c, closes c,
// and reports the pipe down.
func (t *TCP) dropConn(peer string, c net.Conn) {
	if t.removeConn(peer, c) {
		t.notifyPipeDown(peer)
	}
}

func (t *TCP) readLoop(peer string, c net.Conn, version byte) {
	for {
		h, body, err := wire.ReadFrame(c)
		if err == nil {
			switch {
			case h.Version != version:
				err = fmt.Errorf("%w: frame version %d, negotiated %d",
					wire.ErrBadVersion, h.Version, version)
			case h.Type < 0x10:
				// Wire-layer frame after the handshake (a stray hello, or a
				// type from a future protocol revision).
				err = fmt.Errorf("wire: unexpected frame type 0x%02x", h.Type)
			}
		}
		var env msg.Envelope
		if err == nil {
			env, err = msg.DecodeEnvelope(msg.Tag(h.Type), body)
		}
		if err != nil {
			// I/O failure or protocol violation: either way the pipe comes
			// down, and the peer layer compensates for lost messages.
			t.dropConn(peer, c)
			return
		}
		t.handlerMu.Lock()
		deliver := t.handler
		t.handlerMu.Unlock()
		if deliver == nil {
			continue
		}
		if b, ok := env.Payload.(*msg.Batch); ok {
			for _, p := range b.Payloads {
				deliver(msg.Envelope{From: env.From, Payload: p})
			}
			continue
		}
		deliver(env)
	}
}

// dial establishes and handshakes an outbound connection, retrying briefly
// with backoff; every attempt failing counts one DialFailures increment. The
// backoff sleep aborts when the transport closes, so Close never waits out a
// retry schedule.
func (t *TCP) dial(addr string) (c net.Conn, theirs wire.Hello, version byte, err error) {
	for attempt := 1; ; attempt++ {
		c, theirs, version, err = t.dialOnce(addr)
		if err == nil {
			return c, theirs, version, nil
		}
		if attempt >= dialAttempts {
			t.dialFails.Add(1)
			return nil, wire.Hello{}, 0, err
		}
		backoff := time.NewTimer(dialBackoffBase << (attempt - 1))
		select {
		case <-backoff.C:
		case <-t.done:
			backoff.Stop()
			return nil, wire.Hello{}, 0, ErrClosed
		}
	}
}

func (t *TCP) dialOnce(addr string) (net.Conn, wire.Hello, byte, error) {
	c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, wire.Hello{}, 0, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := wire.WriteHello(c, t.hello()); err != nil {
		c.Close()
		return nil, wire.Hello{}, 0, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	theirs, err := wire.ReadHello(c)
	if err != nil {
		c.Close()
		return nil, wire.Hello{}, 0, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	version, err := wire.Negotiate(t.hello(), theirs)
	if err != nil {
		c.Close()
		return nil, wire.Hello{}, 0, fmt.Errorf("transport: handshake with %s: %w", addr, err)
	}
	c.SetDeadline(time.Time{})
	return c, theirs, version, nil
}

// Connect implements Transport: dials addr (with retry/backoff) and
// handshakes. Re-connecting to an already-piped node is a no-op. In-flight
// dials are serialised per node: when two callers race a Connect to the same
// peer, one dials and the other waits for the outcome, so two sockets are
// never registered back to back (which would silently close the first while
// its read loop was live).
func (t *TCP) Connect(node, addr string) error {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrClosed
		}
		if _, ok := t.conns[node]; ok {
			t.mu.Unlock()
			return nil
		}
		gate := t.dialing[node]
		if gate == nil {
			gate = make(chan struct{})
			t.dialing[node] = gate
			t.mu.Unlock()
			err := t.dialAndRegister(node, addr)
			t.mu.Lock()
			delete(t.dialing, node)
			t.mu.Unlock()
			close(gate)
			return err
		}
		t.mu.Unlock()
		// Another Connect to this node is mid-dial: wait for its outcome and
		// re-check instead of racing a second socket into register.
		select {
		case <-gate:
		case <-t.done:
			return ErrClosed
		}
	}
}

// dialAndRegister is the single-flight body of Connect: the caller holds the
// per-node dialing gate.
func (t *TCP) dialAndRegister(node, addr string) error {
	if addr == "" {
		return fmt.Errorf("transport: connect to %s: no address", node)
	}
	c, theirs, version, err := t.dial(addr)
	if err != nil {
		return fmt.Errorf("transport: connect to %s: %w", node, err)
	}
	if theirs.Name != node {
		c.Close()
		return fmt.Errorf("transport: dialed %s but peer identifies as %s", node, theirs.Name)
	}
	if !t.register(node, &tcpConn{c: c, version: version}) {
		// Lost a simultaneous-open tie-break: the peer's own dial to us
		// already registered, and both ends keep that socket. The pipe is up.
		c.Close()
		return nil
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(node, c, version)
	}()
	return nil
}

// ConnectAddr implements AddrDialer: it dials an address whose node name is
// not known in advance (the first hop of a runtime join) and learns the
// name from the remote's hello.
func (t *TCP) ConnectAddr(addr string) (string, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", ErrClosed
	}
	t.mu.Unlock()
	c, theirs, version, err := t.dial(addr)
	if err != nil {
		return "", err
	}
	if theirs.Name == t.self {
		c.Close()
		return "", fmt.Errorf("transport: %s dialed itself at %s", t.self, addr)
	}
	if !t.register(theirs.Name, &tcpConn{c: c, version: version}) {
		c.Close()
		return theirs.Name, nil // simultaneous open resolved to the peer's socket
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(theirs.Name, c, version)
	}()
	return theirs.Name, nil
}

// DialFailures counts outbound dials that failed after every retry — the
// observable for "no dials to departed addresses": a healthy dynamic
// network tombstones departed peers instead of re-dialing them, so churn
// should leave this at zero.
func (t *TCP) DialFailures() uint64 { return t.dialFails.Load() }

// Send implements Transport: the envelope is encoded into one frame —
// header at the negotiated version, payload tag, CRC — and written in a
// single call.
func (t *TCP) Send(to string, p msg.Payload) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	conn := t.conns[to]
	t.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	env := msg.Envelope{From: t.self, Payload: p}
	conn.writeMu.Lock()
	defer conn.writeMu.Unlock()
	return t.writeEnvelope(to, conn, env)
}

// writeEnvelope encodes env into one frame and writes it on conn; the caller
// holds conn.writeMu. Encode-side failures — an unencodable payload, or a
// body past the frame limit — return before anything touches the socket:
// zero bytes reached the wire, the remote reader is still frame-aligned, and
// the pipe stays up. Only a failed socket write tears the pipe down, because
// a partial write leaves the remote mid-frame.
func (t *TCP) writeEnvelope(to string, conn *tcpConn, env msg.Envelope) error {
	// Reserve the frame header in the reused buffer so header and body go
	// out in one write.
	if cap(conn.buf) < wire.HeaderLen {
		conn.buf = make([]byte, wire.HeaderLen, 4096)
	}
	frame, tag, err := msg.AppendEnvelope(conn.buf[:wire.HeaderLen], env)
	if err == nil && len(frame)-wire.HeaderLen > maxFrame {
		err = wire.ErrFrameTooBig
	}
	if err != nil {
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	conn.buf = frame
	wire.PutHeader(frame[:wire.HeaderLen], conn.version, byte(tag), frame[wire.HeaderLen:])
	if _, err := conn.c.Write(frame); err != nil {
		t.dropConn(to, conn.c)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if cap(conn.buf) > bufRetain {
		conn.buf = make([]byte, 0, bufRetain)
	}
	t.frames.Add(1)
	t.bytes.Add(uint64(len(frame)))
	return nil
}

// StartHeartbeats begins emitting one msg.Heartbeat frame per interval on
// every pipe. Heartbeats are control traffic below the peer layer: they
// reset the receiver's suspicion timer but carry no session obligations and
// are not deficit-counted.
// Subsequent calls are no-ops; the loop stops when the transport closes.
func (t *TCP) StartHeartbeats(interval time.Duration) {
	if interval <= 0 {
		return
	}
	t.hbOnce.Do(func() {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.heartbeatLoop(interval)
	})
}

func (t *TCP) heartbeatLoop(interval time.Duration) {
	defer t.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq uint64
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
		}
		seq++
		t.mu.Lock()
		targets := maps.Clone(t.conns)
		t.mu.Unlock()
		for name, conn := range targets {
			env := msg.Envelope{From: t.self, Payload: &msg.Heartbeat{Seq: seq}}
			conn.writeMu.Lock()
			// A write failure already dropped the conn; nothing to do here —
			// the pipe-down notification reaches the peer layer on its own.
			_ = t.writeEnvelope(name, conn, env)
			conn.writeMu.Unlock()
		}
	}
}

// Disconnect implements Transport.
func (t *TCP) Disconnect(node string) {
	t.mu.Lock()
	conn := t.conns[node]
	delete(t.conns, node)
	t.mu.Unlock()
	if conn != nil {
		conn.c.Close()
	}
}

// Peers implements Transport.
func (t *TCP) Peers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.conns))
	for p := range t.conns {
		out = append(out, p)
	}
	return out
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	conns := t.conns
	t.conns = make(map[string]*tcpConn)
	t.mu.Unlock()

	t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	t.wg.Wait()
	return nil
}
