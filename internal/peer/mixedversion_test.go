package peer

import (
	"io"
	"net"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
	"codb/internal/wire"
)

// TestPeerUpdateTerminatesOnOldVersionPeer is the end-to-end mixed-version
// scenario: a current peer runs a global update against an acquaintance
// that completes a valid handshake but then answers with frames from a
// protocol revision that was never negotiated. The wrong-version frame must
// fail the pipe through the normal pipe-down path, and the session must
// terminate via deficit compensation — no hang, no error — exactly as if
// the peer had departed.
func TestPeerUpdateTerminatesOnOldVersionPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Refuse any reconnection attempt immediately, so compensation for
		// the torn-down pipe does not wait out a handshake timeout.
		go func() {
			for {
				rc, err := ln.Accept()
				if err != nil {
					return
				}
				rc.Close()
			}
		}()
		if _, err := wire.ReadHello(c); err != nil {
			return
		}
		if err := wire.WriteHello(c, wire.Hello{Name: "B", Min: wire.MinVersion, Max: wire.MaxVersion}); err != nil {
			return
		}
		// Consume the session request, then answer at a version the
		// handshake never agreed on.
		if _, _, err := wire.ReadFrame(c); err != nil {
			return
		}
		body, tag, err := msg.AppendEnvelope(nil, msg.Envelope{From: "B", Payload: &msg.SessionAck{SID: "x", N: 1}})
		if err != nil {
			return
		}
		if err := wire.WriteFrame(c, wire.MaxVersion+1, byte(tag), body); err != nil {
			return
		}
		// Hold the socket open: termination must not depend on our EOF.
		io.Copy(io.Discard, c)
	}()

	db := storage.MustOpenMem()
	if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	tr, err := transport.NewTCP("A", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Options{
		Name:      "A",
		Transport: tr,
		Wrapper:   core.NewStoreWrapper(db),
		Directory: map[string]string{"B": ln.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	if err := p.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rep, err := p.RunUpdate(ctxT(t))
	if err != nil {
		t.Fatalf("update against old-version peer: %v", err)
	}
	if rep.Origin != "A" {
		t.Errorf("report = %+v", rep)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("termination took %v", elapsed)
	}
}
