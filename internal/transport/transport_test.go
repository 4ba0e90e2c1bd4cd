package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"codb/internal/msg"
)

// collector gathers delivered envelopes behind a lock.
type collector struct {
	mu   sync.Mutex
	envs []msg.Envelope
}

func (c *collector) handler(env msg.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.envs = append(c.envs, env)
}

func (c *collector) wait(t *testing.T, n int) []msg.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.envs) >= n {
			out := append([]msg.Envelope(nil), c.envs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("timed out waiting for %d envelopes, have %d", n, len(c.envs))
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

func ping(sid string) msg.Payload { return &msg.SessionAck{SID: sid, N: 1} }

func TestBusBasicDelivery(t *testing.T) {
	bus := NewBus()
	a := bus.MustJoin("a")
	b := bus.MustJoin("b")
	var got collector
	b.SetHandler(got.handler)
	if err := a.Connect("b", ""); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ping("s1")); err != nil {
		t.Fatal(err)
	}
	envs := got.wait(t, 1)
	if envs[0].From != "a" || envs[0].Payload.(*msg.SessionAck).SID != "s1" {
		t.Errorf("envelope = %+v", envs[0])
	}
}

func TestBusOrderingPerSender(t *testing.T) {
	bus := NewBus()
	a := bus.MustJoin("a")
	b := bus.MustJoin("b")
	var got collector
	b.SetHandler(got.handler)
	a.Connect("b", "")
	const n = 200
	for i := 0; i < n; i++ {
		a.Send("b", &msg.SessionAck{SID: "s", N: i})
	}
	envs := got.wait(t, n)
	for i, e := range envs {
		if e.Payload.(*msg.SessionAck).N != i {
			t.Fatalf("out of order at %d: %d", i, e.Payload.(*msg.SessionAck).N)
		}
	}
}

func TestBusErrors(t *testing.T) {
	bus := NewBus()
	a := bus.MustJoin("a")
	if err := a.Connect("ghost", ""); err == nil {
		t.Error("connect to unknown node accepted")
	}
	if err := a.Send("b", ping("s")); err == nil {
		t.Error("send without pipe accepted")
	}
	if _, err := bus.Join("a"); err == nil {
		t.Error("duplicate join accepted")
	}
	b := bus.MustJoin("b")
	a.Connect("b", "")
	b.Close()
	if err := a.Send("b", ping("s")); err == nil {
		t.Error("send to departed node accepted")
	}
	a.Close()
	if err := a.Send("b", ping("s")); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
	if err := a.Connect("b", ""); err != ErrClosed {
		t.Errorf("connect after close = %v", err)
	}
}

func TestBusDisconnectAndPeers(t *testing.T) {
	bus := NewBus()
	a := bus.MustJoin("a")
	bus.MustJoin("b")
	a.Connect("b", "")
	if got := a.Peers(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Peers = %v", got)
	}
	a.Disconnect("b")
	if got := a.Peers(); len(got) != 0 {
		t.Errorf("Peers after disconnect = %v", got)
	}
	if err := a.Send("b", ping("s")); err == nil {
		t.Error("send after disconnect accepted")
	}
	if got := bus.Nodes(); len(got) != 2 {
		t.Errorf("Nodes = %v", got)
	}
}

func TestTCPBasicExchange(t *testing.T) {
	a, err := NewTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var gotA, gotB collector
	a.SetHandler(gotA.handler)
	b.SetHandler(gotB.handler)

	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ping("s1")); err != nil {
		t.Fatal(err)
	}
	envs := gotB.wait(t, 1)
	if envs[0].From != "a" {
		t.Errorf("From = %q", envs[0].From)
	}

	// The accept side can reply over the same pipe without dialing.
	if err := b.Send("a", ping("s2")); err != nil {
		t.Fatal(err)
	}
	envs = gotA.wait(t, 1)
	if envs[0].Payload.(*msg.SessionAck).SID != "s2" {
		t.Errorf("reply = %+v", envs[0])
	}
}

func TestTCPIdentityMismatch(t *testing.T) {
	b, err := NewTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Connect("not-b", b.Addr()); err == nil {
		t.Error("identity mismatch accepted")
	}
}

func TestTCPConnectIdempotent(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatalf("re-connect: %v", err)
	}
	if got := a.Peers(); len(got) != 1 {
		t.Errorf("Peers = %v", got)
	}
}

func TestTCPDialFailure(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	if err := a.Connect("b", "127.0.0.1:1"); err == nil {
		t.Error("dial to dead port accepted")
	}
	if err := a.Connect("b", ""); err == nil {
		t.Error("empty address accepted")
	}
}

func TestTCPManyMessagesBothDirections(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	var gotA, gotB collector
	a.SetHandler(gotA.handler)
	b.SetHandler(gotB.handler)
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send("b", &msg.SessionAck{SID: "ab", N: i}); err != nil {
				t.Errorf("a->b %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Send("a", &msg.SessionAck{SID: "ba", N: i}); err != nil {
				t.Errorf("b->a %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	envsB := gotB.wait(t, n)
	envsA := gotA.wait(t, n)
	for i := range envsB {
		if envsB[i].Payload.(*msg.SessionAck).N != i {
			t.Fatalf("a->b out of order at %d", i)
		}
	}
	for i := range envsA {
		if envsA[i].Payload.(*msg.SessionAck).N != i {
			t.Fatalf("b->a out of order at %d", i)
		}
	}
}

func TestTCPDisconnectAndSendError(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCP("b", "127.0.0.1:0")
	defer b.Close()
	a.Connect("b", b.Addr())
	a.Disconnect("b")
	if err := a.Send("b", ping("s")); err == nil {
		t.Error("send after disconnect accepted")
	}
}

func TestTCPCloseIsIdempotentAndStopsSends(t *testing.T) {
	a, _ := NewTCP("a", "127.0.0.1:0")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ping("s")); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
}

func TestBusManyNodesFanout(t *testing.T) {
	bus := NewBus()
	hub := bus.MustJoin("hub")
	const n = 20
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		tr := bus.MustJoin(name)
		cols[i] = &collector{}
		tr.SetHandler(cols[i].handler)
		hub.Connect(name, "")
	}
	for i := 0; i < n; i++ {
		hub.Send(fmt.Sprintf("n%d", i), ping("fan"))
	}
	for i := 0; i < n; i++ {
		cols[i].wait(t, 1)
	}
}
