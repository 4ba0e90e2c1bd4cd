package codb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codb/internal/chase"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// crashingStore is the fault seam on the flush: once armed, the next commit
// of staged tuples does not happen — die runs in its place (the process is
// gone: sockets closed), and nothing is ever committed through it again.
type crashingStore struct {
	*core.StoreWrapper
	armed, dead atomic.Bool
	die         func()
}

func (w *crashingStore) InsertKeyed(rows []relation.Row) ([]bool, error) {
	if w.armed.CompareAndSwap(true, false) {
		w.dead.Store(true)
		w.die()
	}
	if w.dead.Load() {
		return nil, errors.New("killed between ship and sync")
	}
	return w.StoreWrapper.InsertKeyed(rows)
}

// TestCrashBetweenShipAndSync kills a middle peer of a durable TCP chain
// n0 <- n1 <- n2 <- n3 after it has shipped the delta it derived from a
// burst and before its own commit: n2 forwards what n3 sent, then dies with
// the burst staged. Downstream keeps what it was shipped — sound
// consequences of n3's durable rows; upstream wrote the unacknowledged data
// message off and must not trust its export state toward n2 any more. After
// RestartDurablePeer, n2 holds only what it had synced, and one more update
// re-exports toward it in full: every node equals the oracle fixpoint.
func TestCrashBetweenShipAndSync(t *testing.T) {
	const nodes, victim = 4, 2
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	dirs := make([]string, nodes)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}

	var trMu sync.Mutex
	transports := map[string]transport.Transport{}
	nw := NewNetworkWithOptions(NetworkOptions{
		Transport: TransportGroup{TCP: true, Wrap: func(node string, tr transport.Transport) transport.Transport {
			trMu.Lock()
			transports[node] = tr
			trMu.Unlock()
			return tr
		}},
		Storage:   StorageGroup{SyncOnCommit: true},
		Suspicion: SuspicionGroup{Timeout: time.Second},
	})
	defer nw.Close()

	var store *crashingStore
	for i := 0; i < nodes; i++ {
		if i != victim {
			if _, err := nw.AddDurablePeer(name(i), dirs[i], "r(x int)"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// The victim is an ordinary durable peer over a store with the seam.
		db, err := storage.Open(nw.storageOptions(dirs[i]))
		if err != nil {
			t.Fatal(err)
		}
		def, err := parseRelDecl("r(x int)")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRelation(def); err != nil {
			t.Fatal(err)
		}
		store = &crashingStore{StoreWrapper: core.NewStoreWrapper(db)}
		if _, err := nw.join(name(i), store); err != nil {
			t.Fatal(err)
		}
		nw.mu.Lock()
		nw.dbs[name(i)] = db
		nw.mu.Unlock()
	}
	ruleText := func(i int) string { return fmt.Sprintf("%s.r(x) <- %s.r(x)", name(i), name(i+1)) }
	for i := 0; i+1 < nodes; i++ {
		nw.MustAddRule(fmt.Sprintf("r%d", i), ruleText(i))
	}

	next := 0
	insertAtTail := func(n int) {
		t.Helper()
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = Row(Int(next))
			next++
		}
		if err := nw.Insert(name(nodes-1), "r", rows...); err != nil {
			t.Fatal(err)
		}
	}
	update := func() Report {
		t.Helper()
		rep, err := nw.Update(ctxT(t), name(0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Two healthy rounds: the second runs on established export state.
	insertAtTail(40)
	update()
	insertAtTail(8)
	update()
	synced := next
	for i := 0; i < nodes; i++ {
		expectTuples(t, nw.Peer(name(i)), synced)
	}
	tailRule := fmt.Sprintf("r%d", victim)
	if _, ok := nw.Peer(name(victim + 1)).ExportWatermarks()[tailRule]; !ok {
		t.Fatalf("%s keeps no export state toward the victim before the crash", name(victim+1))
	}

	// The burst n2 will die holding. A killed process resets its sockets, which
	// can take frames still in flight with it; the seam waits until the next
	// hop has made the shipped delta durable, so the test has one outcome.
	insertAtTail(16)
	doomed, below, burst := nw.Peer(name(victim)), nw.Peer(name(victim-1)), next
	trMu.Lock()
	victimTr := transports[name(victim)]
	trMu.Unlock()
	store.die = func() {
		doomed.FlushOutbox() // everything derived is on the wire: shipped
		for deadline := time.Now().Add(5 * time.Second); below.Count("r") != burst && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		victimTr.Close() // and the commit never happens: not synced
	}
	store.armed.Store(true)
	rep := update() // terminates by compensation, not by n2's acknowledgements
	if !store.dead.Load() {
		t.Fatal("the update never reached the victim's flush")
	}
	if rep.SID == "" {
		t.Fatal("no report for the update across the crash")
	}
	// Downstream of the victim the burst arrived and is durable.
	for i := 0; i < victim; i++ {
		expectTuples(t, nw.Peer(name(i)), next)
	}
	// Upstream noticed: the data message was never acknowledged, so the
	// export state toward n2 is void.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, trusted := nw.Peer(name(victim + 1)).ExportWatermarks()[tailRule]; !trusted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still trusts its export state toward the crashed %s", name(victim+1), name(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, neighbour := range []int{victim - 1, victim + 1} {
		waitMembership(t, nw.Peer(name(neighbour)), name(victim)+" noted down", func(st MembershipStats) bool {
			return st.Downs >= 1
		})
	}

	// A new process over the same directory: only what was synced is there.
	restartDurablePeer(t, nw, name(victim), dirs[victim])
	expectTuples(t, nw.Peer(name(victim)), synced)
	nw.MustAddRule(fmt.Sprintf("r%d", victim-1), ruleText(victim-1))
	nw.MustAddRule(tailRule, ruleText(victim))

	insertAtTail(4)
	rep = update()
	if r := sessionReport(t, nw.Peer(name(victim+1)), rep.SID); r.ExportsFull == 0 {
		t.Errorf("%s exported toward the restarted peer incr=%d full=%d fallback=%d; want a full re-export",
			name(victim+1), r.ExportsIncremental, r.ExportsFull, r.ExportsFallback)
	}

	// Every node equals the oracle fixpoint of the final base data.
	var rules []*cq.Rule
	start := map[string]relation.Instance{}
	for i := 0; i < nodes; i++ {
		start[name(i)] = relation.NewInstance()
		if i+1 < nodes {
			rules = append(rules, cq.MustParseRule(fmt.Sprintf("r%d", i), ruleText(i)))
		}
	}
	for x := 0; x < next; x++ {
		start[name(nodes-1)].Insert("r", relation.Tuple{relation.Int(x)})
	}
	fix, _, err := chase.Fixpoint(rules, start, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		got, want := nw.Peer(name(i)).Tuples("r"), fix[name(i)].Tuples("r")
		if len(got) != len(want) {
			t.Fatalf("%s holds %d tuples, oracle %d", name(i), len(got), len(want))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("%s tuple %d is %v, oracle %v", name(i), j, got[j], want[j])
			}
		}
	}
}
