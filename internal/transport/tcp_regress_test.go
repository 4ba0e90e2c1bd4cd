package transport

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codb/internal/msg"
	"codb/internal/wire"
)

// An encode-side Send failure must not tear down the pipe: zero bytes
// reached the wire, so the remote reader is still frame-aligned and the
// connection is perfectly healthy. A regression here turns one oversized
// payload into a pipe-down, a spurious loss compensation, and a redial.
func TestTCPSendOversizedPayloadKeepsPipe(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	var got collector
	b.SetHandler(got.handler)
	var downs atomic.Uint64
	a.SetPipeDownHandler(func(string) { downs.Add(1) })
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}

	huge := &msg.RulesBroadcast{Version: 1, Text: strings.Repeat("x", maxFrame+16)}
	err := a.Send("b", huge)
	if !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("oversized send = %v, want ErrFrameTooBig", err)
	}
	if n := a.FramesSent(); n != 0 {
		t.Errorf("oversized send counted %d frames on the wire", n)
	}

	// The pipe must still be registered and usable.
	if peers := a.Peers(); len(peers) != 1 || peers[0] != "b" {
		t.Errorf("Peers after failed send = %v", peers)
	}
	if err := a.Send("b", ping("after")); err != nil {
		t.Fatalf("send after oversized failure: %v", err)
	}
	envs := got.wait(t, 1)
	if envs[0].Payload.(*msg.SessionAck).SID != "after" {
		t.Errorf("delivered = %+v", envs[0])
	}
	if n := downs.Load(); n != 0 {
		t.Errorf("encode failure fired %d pipe-down notifications", n)
	}
}

// Concurrent Connects to the same node must single-flight the dial: one
// socket, one registered pipe, no replaced-and-closed connection churn.
func TestTCPConcurrentConnectSingleFlight(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	var gotA, gotB collector
	a.SetHandler(gotA.handler)
	b.SetHandler(gotB.handler)
	var downsA, downsB atomic.Uint64
	a.SetPipeDownHandler(func(string) { downsA.Add(1) })
	b.SetPipeDownHandler(func(string) { downsB.Add(1) })

	const racers = 16
	errs := make([]error, racers)
	var wg sync.WaitGroup
	wg.Add(racers)
	for i := 0; i < racers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Connect("b", b.Addr())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	if peers := a.Peers(); len(peers) != 1 || peers[0] != "b" {
		t.Errorf("a.Peers = %v, want exactly [b]", peers)
	}

	// Both directions work over the single pipe, and the race produced no
	// connection churn (a second socket registering would replace and close
	// the first, firing pipe-down on whoever was reading it).
	if err := a.Send("b", ping("ab")); err != nil {
		t.Fatal(err)
	}
	gotB.wait(t, 1)
	if err := b.Send("a", ping("ba")); err != nil {
		t.Fatal(err)
	}
	gotA.wait(t, 1)
	time.Sleep(50 * time.Millisecond)
	if peers := b.Peers(); len(peers) != 1 || peers[0] != "a" {
		t.Errorf("b.Peers = %v, want exactly [a]", peers)
	}
	if da, db := downsA.Load(), downsB.Load(); da != 0 || db != 0 {
		t.Errorf("connection churn: %d pipe-downs on a, %d on b", da, db)
	}
}

// A one-off large frame must not pin its encoding buffer on the pipe for
// the lifetime of the connection.
func TestTCPSendBufferShrinksAfterLargeFrame(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	var got collector
	b.SetHandler(got.handler)
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}

	big := &msg.RulesBroadcast{Version: 1, Text: strings.Repeat("x", 1<<20)}
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	got.wait(t, 1)

	a.mu.Lock()
	conn := a.conns["b"]
	a.mu.Unlock()
	conn.writeMu.Lock()
	bufCap := cap(conn.buf)
	conn.writeMu.Unlock()
	if bufCap > bufRetain {
		t.Errorf("write buffer cap = %d after 1 MiB frame, want <= %d", bufCap, bufRetain)
	}
	if err := a.Send("b", ping("small")); err != nil {
		t.Fatal(err)
	}
	got.wait(t, 2)
}

// Close must abort a Connect stuck in its dial retry backoff instead of
// waiting the schedule out.
func TestTCPCloseAbortsDialBackoff(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	errCh := make(chan error, 1)
	go func() {
		errCh <- a.Connect("b", "127.0.0.1:1") // refused instantly, then backoff
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("connect to dead port during close returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Connect did not return after Close")
	}
}

// The acceptor must know the dialer by the time the dialer's Connect
// returns: the dialer (or anyone it tells) may have the acceptor send to it
// straight away, and a reply must not meet ErrUnknownPeer because the
// acceptor answered the hello before registering the pipe.
func TestTCPAcceptorKnowsDialerWhenConnectReturns(t *testing.T) {
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	for round := 0; round < 300; round++ {
		a, err := NewTCP("a", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var got collector
		a.SetHandler(got.handler)
		if err := a.Connect("b", b.Addr()); err != nil {
			a.Close()
			t.Fatal(err)
		}
		if err := b.Send("a", ping("reply")); err != nil {
			a.Close()
			t.Fatalf("round %d: reply sent as soon as Connect returned: %v", round, err)
		}
		got.wait(t, 1)
		a.Close()
	}
}
