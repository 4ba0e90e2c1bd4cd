package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"codb/internal/msg"
	"codb/internal/wire"
)

// rawDial opens a plain socket to a TCP transport and performs a handshake
// with the given version range, returning the connection and the peer's
// hello. Used to simulate peers speaking other protocol revisions.
func rawDial(t *testing.T, addr, name string, min, max byte) (net.Conn, wire.Hello, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := wire.WriteHello(c, wire.Hello{Name: name, Min: min, Max: max}); err != nil {
		c.Close()
		t.Fatalf("write hello: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	theirs, err := wire.ReadHello(c)
	if err != nil {
		return c, wire.Hello{}, err
	}
	c.SetReadDeadline(time.Time{})
	return c, theirs, nil
}

// waitClosed asserts the far side closes the connection (read hits EOF or
// reset) within the deadline.
func waitClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [64]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			if err == io.EOF {
				return
			}
			var ne net.Error
			if ok := errorsAs(err, &ne); ok && ne.Timeout() {
				t.Fatal("connection not closed by peer")
			}
			return // reset etc.
		}
	}
}

// errorsAs avoids importing errors twice in helpers.
func errorsAs(err error, target *net.Error) bool {
	ne, ok := err.(net.Error)
	if ok {
		*target = ne
	}
	return ok
}

// TestTCPHandshakeVersionMismatch: a dialer offering only a future protocol
// version, or only the retired V1, is refused — the acceptor closes the
// connection without ever registering a pipe, so no pipe-down fires.
func TestTCPHandshakeVersionMismatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		min, max byte
	}{
		{"future", 99, 99},
		{"v1-only", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewTCP("srv", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			downs := make(chan string, 1)
			srv.SetPipeDownHandler(func(p string) { downs <- p })

			c, _, err := rawDial(t, srv.Addr(), tc.name, tc.min, tc.max)
			if err == nil {
				// The acceptor may close before or after writing anything;
				// either way the connection must die without a registered
				// pipe.
				waitClosed(t, c)
			}
			c.Close()

			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if len(srv.Peers()) == 0 {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if got := srv.Peers(); len(got) != 0 {
				t.Fatalf("refused dialer registered a pipe: %v", got)
			}
			select {
			case p := <-downs:
				t.Fatalf("pipe-down fired for never-established pipe %q", p)
			default:
			}
		})
	}
}

// TestTCPOldVersionFramesFailPipeCleanly: after a good handshake, frames
// carrying a different version than negotiated tear the pipe down through
// the normal pipe-down path — exactly what the Dijkstra–Scholten deficit
// compensation upstream needs to terminate sessions.
func TestTCPOldVersionFramesFailPipeCleanly(t *testing.T) {
	srv, err := NewTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	downs := make(chan string, 1)
	srv.SetPipeDownHandler(func(p string) { downs <- p })

	c, theirs, err := rawDial(t, srv.Addr(), "old", wire.MinVersion, wire.MaxVersion)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if theirs.Name != "srv" {
		t.Fatalf("peer identifies as %q", theirs.Name)
	}
	defer c.Close()

	// Now speak a version that was never negotiated.
	body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "old", Payload: ping("s1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, wire.MaxVersion+1, byte(tag), body); err != nil {
		t.Fatal(err)
	}

	select {
	case p := <-downs:
		if p != "old" {
			t.Fatalf("pipe-down for %q, want old", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pipe-down after wrong-version frame")
	}
	waitClosed(t, c)
}

// TestTCPUnknownTypeAndBadCRCFailPipe: unknown payload tags and corrupted
// bodies likewise come down through the pipe-down path.
func TestTCPUnknownTypeAndBadCRCFailPipe(t *testing.T) {
	cases := []struct {
		name  string
		frame func(t *testing.T) []byte
	}{
		{"unknown-type", func(t *testing.T) []byte {
			return wire.AppendFrame(nil, wire.V2, 0xEE, []byte("??"))
		}},
		{"wire-type-after-handshake", func(t *testing.T) []byte {
			var b bytes.Buffer
			if err := wire.WriteHello(&b, wire.Hello{Name: "again", Min: wire.MinVersion, Max: wire.MaxVersion}); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"bad-crc", func(t *testing.T) []byte {
			body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "old", Payload: ping("s1")})
			if err != nil {
				t.Fatal(err)
			}
			f := wire.AppendFrame(nil, wire.V2, byte(tag), body)
			f[len(f)-1] ^= 0x01
			return f
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewTCP("srv", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			downs := make(chan string, 1)
			srv.SetPipeDownHandler(func(p string) { downs <- p })

			c, _, err := rawDial(t, srv.Addr(), "old", wire.MinVersion, wire.MaxVersion)
			if err != nil {
				t.Fatalf("handshake: %v", err)
			}
			defer c.Close()
			if _, err := c.Write(tc.frame(t)); err != nil {
				t.Fatal(err)
			}
			select {
			case p := <-downs:
				if p != "old" {
					t.Fatalf("pipe-down for %q, want old", p)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no pipe-down after bad frame")
			}
		})
	}
}

// TestTCPMixedVersionRangeNegotiatesDown: a dialer advertising a wider
// range settles on the highest version the acceptor speaks, and traffic
// flows at that version.
func TestTCPMixedVersionRangeNegotiatesDown(t *testing.T) {
	srv, err := NewTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var got collector
	srv.SetHandler(got.handler)

	// Pretend to be a newer build that still speaks V2.
	c, theirs, err := rawDial(t, srv.Addr(), "newer", wire.MinVersion, wire.MaxVersion+3)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer c.Close()
	v, err := wire.Negotiate(wire.Hello{Name: "newer", Min: wire.MinVersion, Max: wire.MaxVersion + 3}, theirs)
	if err != nil {
		t.Fatal(err)
	}
	if v != wire.MaxVersion {
		t.Fatalf("negotiated %d, want %d", v, wire.MaxVersion)
	}
	body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "newer", Payload: ping("s1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, v, byte(tag), body); err != nil {
		t.Fatal(err)
	}
	envs := got.wait(t, 1)
	if envs[0].From != "newer" || envs[0].Payload.(*msg.SessionAck).SID != "s1" {
		t.Fatalf("unexpected delivery %+v", envs[0])
	}
}
