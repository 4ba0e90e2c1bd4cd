package peer

import (
	"context"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

func newTCPPeer(t *testing.T, name string) (*Peer, *transport.TCP) {
	t.Helper()
	tr, err := transport.NewTCP(name, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db := storage.MustOpenMem()
	if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "a", Type: relation.TInt}}}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Options{Name: name, Transport: tr, Wrapper: core.NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	return p, tr
}

// TestUpdateCompensatesDeadPeer: an update started right after an
// acquaintance died must still terminate. This exercises the outbox's
// asynchronous failure path end to end: the first write into the dead
// pipe can succeed at the OS level, so termination relies on the
// pipe-down notification clearing the per-destination deficit
// (CompensatePeerLoss), not on a synchronous send error.
func TestUpdateCompensatesDeadPeer(t *testing.T) {
	a, _ := newTCPPeer(t, "A")
	defer a.Stop()
	b, trB := newTCPPeer(t, "B")
	a.SetDirectory(map[string]string{"B": trB.Addr()})
	if err := a.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddRule("r1", `A.r(x) <- B.r(x)`); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("r", relation.Tuple{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := a.RunUpdate(ctx); err != nil {
		t.Fatalf("baseline update: %v", err)
	}
	if a.Count("r") != 1 {
		t.Fatalf("A.r = %d", a.Count("r"))
	}

	b.Stop()
	// No fail-over delay: the very next update races the dead pipe.
	for i := 0; i < 3; i++ {
		if _, err := a.RunUpdate(ctx); err != nil {
			t.Fatalf("update %d with B down: %v", i, err)
		}
	}
}

// TestOutboxStatsExposed: the peer surfaces its pipeline counters, which
// count what it sent once the pipeline has flushed.
func TestOutboxStatsExposed(t *testing.T) {
	bus := transport.NewBus()
	a := newBusPeer(t, bus, "A", "r/1")
	newBusPeer(t, bus, "B", "r/1")
	if got := a.OutboxStats(); got.Frames != 0 {
		t.Errorf("idle peer wrote %d frames", got.Frames)
	}
	if err := a.SendTo("B", &msg.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	a.FlushOutbox()
	if got := a.OutboxStats(); got.Frames == 0 || got.Payloads == 0 {
		t.Errorf("outbox stats after a send and a flush = %+v, want frames and payloads", got)
	}
}
