package peer

import (
	"testing"
	"time"

	"codb/internal/msg"
	"codb/internal/transport"
)

func TestEventQueueCloseUnblocksTake(t *testing.T) {
	q := newEventQueue()
	done := make(chan []any)
	go func() { done <- q.take(nil, true) }()
	time.Sleep(5 * time.Millisecond)
	q.close()
	select {
	case items := <-done:
		if items != nil {
			t.Errorf("take returned %v after close", items)
		}
	case <-time.After(time.Second):
		t.Fatal("take did not unblock")
	}
	if q.put(msg.Envelope{}) {
		t.Error("put after close accepted")
	}
}

func TestEventQueueOfferAndPoll(t *testing.T) {
	q := newEventQueue()
	if items := q.take(nil, false); len(items) != 0 {
		t.Errorf("poll of an empty queue = %v", items)
	}
	for i := 0; i < 3; i++ {
		q.put(i)
	}
	if q.offer(3, 3) {
		t.Error("offer accepted past its limit")
	}
	if !q.offer(3, 4) {
		t.Error("offer refused under its limit")
	}
	items := q.take(nil, true)
	if len(items) != 4 || items[0] != 0 || items[3] != 3 {
		t.Errorf("take = %v, want [0 1 2 3]", items)
	}
	// The spare buffer handed back becomes the queue's next one, emptied.
	q.put(4)
	if next := q.take(items, true); len(next) != 1 || next[0] != 4 {
		t.Errorf("take = %v, want [4]", next)
	}
	if items[0] != nil {
		t.Errorf("spare buffer kept %v", items[0])
	}
}

// TestPipeDownFollowsItsEnvelopes: a TCP pipe's envelopes and the pipe-down
// that ends it reach the actor's queue in that order.
func TestPipeDownFollowsItsEnvelopes(t *testing.T) {
	p := &Peer{events: newEventQueue()}
	a, err := transport.NewTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.NewTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetHandler(func(env msg.Envelope) { p.events.put(env) })
	b.SetPipeDownHandler(p.notePipeDown)
	if err := a.Connect("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 1; i <= n; i++ {
		if err := a.Send("b", &msg.SessionAck{SID: "s", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	timeout := time.AfterFunc(5*time.Second, p.events.close)
	defer timeout.Stop()
	var got []any
	for len(got) <= n {
		items := p.events.take(nil, true)
		if items == nil {
			t.Fatalf("timed out with %d of %d envelopes and the pipe-down", len(got), n)
		}
		got = append(got, items...)
	}
	for i, item := range got[:n] {
		env, ok := item.(msg.Envelope)
		if !ok || env.Payload.(*msg.SessionAck).N != i+1 {
			t.Fatalf("item %d = %#v, want envelope %d", i, item, i+1)
		}
	}
	if d, ok := got[n].(pipeDown); !ok || d.peer != "a" || len(got) != n+1 {
		t.Errorf("after the envelopes: %#v, want only the pipe-down of a", got[n:])
	}
}
