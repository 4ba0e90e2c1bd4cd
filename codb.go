// Package codb is a from-scratch Go implementation of the coDB peer-to-peer
// database system (Franconi, Kuper, Lopatenko, Zaihrayeu: "Queries and
// Updates in the coDB Peer to Peer Database System", VLDB 2004).
//
// A coDB network is a set of autonomous relational databases with
// heterogeneous schemas, interconnected by GLAV coordination rules —
// inclusions of conjunctive queries, possibly with existential variables in
// the head, possibly cyclic. Each node can be queried in its own schema;
// data is fetched from acquaintances at query time, or materialised ahead
// of time by the distributed global update algorithm, which terminates even
// on cyclic rule graphs.
//
// The Network type runs a whole P2P network inside one process (each peer a
// goroutine actor, connected by an in-process bus), which is the easiest
// way to use the library and how the paper's demo experiments run:
//
//	nw := codb.NewNetwork()
//	defer nw.Close()
//	nw.MustAddPeer("hospital", "patient(id int, name string)")
//	nw.MustAddPeer("clinic", "visitor(id int, name string)")
//	nw.MustAddRule("r1", `hospital.patient(x, n) <- clinic.visitor(x, n)`)
//	nw.Insert("clinic", "visitor", codb.Row(codb.Int(1), codb.Str("ann")))
//	nw.Update(context.Background(), "hospital")
//	rows, _ := nw.LocalQuery("hospital", `ans(n) :- patient(x, n)`, codb.AllAnswers)
//
// Multi-process deployments use the same peers over TCP; see cmd/codb-peer
// and cmd/codb-super.
package codb

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	httpapi "codb/internal/api/http"
	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/superpeer"
	"codb/internal/transport"
)

// Re-exported building blocks, so library users need only this package.
type (
	// Value is one typed attribute value (int, float, string, bool, or a
	// marked null).
	Value = relation.Value
	// Tuple is one relational tuple.
	Tuple = relation.Tuple
	// Report is the per-session statistics record of the paper's
	// statistical module.
	Report = msg.UpdateReport
	// QueryMode selects all-answers or certain-answers semantics.
	QueryMode = core.QueryMode
	// Peer is a running coDB node.
	Peer = peer.Peer
	// SuperPeer coordinates experiments: rule broadcasts, remote updates,
	// statistics aggregation.
	SuperPeer = superpeer.SuperPeer
	// Aggregate is a cross-node per-session statistics summary.
	Aggregate = superpeer.Aggregate
	// ReadStats are a peer's read-path counters: answer hits, misses and
	// stale misses, and the statement table's population.
	ReadStats = peer.ReadStats
	// StorageStats is a peer's storage-engine report: per-relation row/byte
	// counts, WAL size, logged commits and their fsyncs.
	StorageStats = storage.DetailedStats
	// PropagationStats is a peer's propagation-policy snapshot: per-link
	// counters plus staleness quantiles.
	PropagationStats = peer.PropagationStats
	// LinkPropagationStats is one link's propagation counters.
	LinkPropagationStats = core.LinkPropagationStats
	// MembershipStats is a peer's failure-detector snapshot: per-peer
	// suspicion states, transition counters, directory totals.
	MembershipStats = peer.MembershipStats
)

// Query modes.
const (
	// AllAnswers streams every derived answer, marked nulls included.
	AllAnswers = core.AllAnswers
	// CertainAnswers drops answers containing marked nulls.
	CertainAnswers = core.CertainAnswers
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = relation.Int
	// Float builds a float value.
	Float = relation.Float
	// Str builds a string value.
	Str = relation.Str
	// Bool builds a boolean value.
	Bool = relation.Bool
	// Null builds a marked null with the given label.
	Null = relation.Null
)

// Row builds a tuple from values.
func Row(vs ...Value) Tuple { return Tuple(vs) }

// Network is an in-process coDB network: peers as goroutine actors,
// connected by an in-process bus or — with Transport.TCP — by real sockets
// speaking the versioned binary wire protocol. Safe for concurrent use.
type Network struct {
	mu     sync.Mutex
	bus    *transport.Bus
	peers  map[string]*peer.Peer
	dbs    map[string]*storage.DB // databases the network opened and owns
	addrs  map[string]string      // TCP mode: node -> dial address
	epochs map[string]uint64      // node -> directory epoch (bumped per re-add)
	https  map[string]*httpapi.Server
	gw     *httpapi.Server // network-wide gateway (StartGateway)
	super  *superpeer.SuperPeer
	opts   NetworkOptions
}

// StorageGroup groups the storage-engine knobs of NetworkOptions.
type StorageGroup struct {
	// SyncOnCommit makes every commit of a durable peer database reach
	// stable storage before the commit returns (one fsync per commit).
	SyncOnCommit bool
	// SegmentBytes rotates each durable peer database's WAL to a fresh
	// segment at this size (0 = storage default). Smaller segments mean
	// finer-grained checkpoint truncation and changelog spill.
	SegmentBytes int64
	// RetainSegments keeps up to this many checkpoint-superseded WAL
	// segments per durable peer database, so incremental-export watermarks
	// stay answerable from disk across checkpoints and restarts (0 =
	// storage default, negative = none).
	RetainSegments int
	// ChangelogLimit bounds each peer database's per-relation in-memory
	// changelog (0 = storage default, negative disables change capture).
	// On durable peers an overflowed ring spills to the WAL segments
	// instead of degrading exports to history-lost full re-ships.
	ChangelogLimit int
}

// TransportGroup selects how the network's peers are interconnected.
type TransportGroup struct {
	// TCP runs each peer on its own socket listener speaking the versioned
	// binary wire protocol (internal/wire), exactly as multi-process
	// deployments do, instead of the in-process bus. The network maintains
	// the dial directory as peers join.
	TCP bool
	// ListenAddr is the listen address given to every peer's listener in
	// TCP mode (default "127.0.0.1:0"; keep port 0 with more than one
	// peer per host).
	ListenAddr string
	// Wrap, when set, wraps each joining peer's transport before the peer
	// is built on it — the fault-injection seam. Return
	// transport.NewPartitioner(tr) (keeping the reference) to inject
	// partitions and delays per peer, as the partition stress tests do;
	// return tr unchanged to leave a peer unwrapped.
	Wrap func(node string, tr transport.Transport) transport.Transport
}

// SuspicionGroup enables the heartbeat failure detector on every peer: each
// TCP pipe carries periodic heartbeat frames, and a peer silent past Timeout
// is suspected, past 2×Timeout declared down — in-flight work written off,
// pipe severed, paced redials armed — but never tombstoned, because a
// partitioned peer is expected back. On reconnect the pipe, directory and
// lazy links heal automatically. See internal/peer/lifecycle.go.
type SuspicionGroup struct {
	// Timeout is the silence threshold; 0 disables the detector.
	Timeout time.Duration
	// Interval is the heartbeat emission and scan period (0 = Timeout/4).
	Interval time.Duration
}

// PropagationGroup configures per-link propagation policies: how committed
// deltas travel each coordination rule during global updates.
type PropagationGroup struct {
	// Policies maps rule IDs to modes: "push" (eager, the default), "pull"
	// (updates flood only a cheap invalidation hint; the importer pulls
	// the delta on demand), "adaptive" (flips between push and pull using
	// the importer's read demand), or "filter" (push with a predicate).
	Policies map[string]string
	// Filters maps rule IDs to filter predicates — comma-separated
	// comparisons over the rule's frontier variables, e.g. "x > 10" —
	// dropped bindings are counted as suppressed. A filter combines with
	// any mode. Every peer holds both from its start and applies a rule's
	// entry when the rule is declared there, whichever way it arrives
	// (AddRule, a super-peer broadcast, an update request).
	Filters map[string]string
	// MaxStaleness bounds how long a pull link may stay stale before the
	// importer pulls on its own (0 = pull only on local reads or explicit
	// CatchUp).
	MaxStaleness time.Duration
	// PullTimeout bounds how long a local query blocks on a triggered pull
	// before answering from the stale extent (0 = peer default, 2s).
	PullTimeout time.Duration
}

// HTTPGroup enables the per-peer HTTP/JSON serving layer.
type HTTPGroup struct {
	// Enable starts one HTTP gateway per peer as it joins, serving the
	// /v1/* endpoints (see internal/api/http). PeerHTTPAddr reports the
	// bound addresses.
	Enable bool
	// Addr is the listen address for each peer's gateway (default
	// "127.0.0.1:0"; keep port 0 with more than one peer per host).
	Addr string
}

// NetworkOptions tune every peer of the network: algorithm toggles at the
// top level, engine knobs in the Storage, Transport, Propagation, Suspicion
// and HTTP groups.
type NetworkOptions struct {
	// NestedLoopJoin switches the CQ evaluator to nested loops, which push
	// down constants but no range: the correctness reference the
	// differential and oracle tests compare the default hash join against.
	NestedLoopJoin bool
	// FullExport disables cross-session incremental export: every update
	// session re-evaluates and re-ships every link in full, as the paper's
	// algorithm does (the differential tests' reference). By default peers
	// keep a per-rule LSN watermark, kept exact and persisted in the
	// storage log, so repeated updates ship only what changed since the
	// previous session.
	FullExport bool

	// Storage holds the storage-engine knobs.
	Storage StorageGroup
	// Transport selects in-process bus (default) or TCP interconnect.
	Transport TransportGroup
	// Propagation holds the per-link propagation policies.
	Propagation PropagationGroup
	// Suspicion enables the heartbeat failure detector (partition/heal).
	Suspicion SuspicionGroup
	// HTTP enables the per-peer HTTP/JSON gateways.
	HTTP HTTPGroup
}

// resolved fills in the listen-address defaults.
func (o NetworkOptions) resolved() NetworkOptions {
	if o.Transport.ListenAddr == "" {
		o.Transport.ListenAddr = "127.0.0.1:0"
	}
	if o.HTTP.Addr == "" {
		o.HTTP.Addr = "127.0.0.1:0"
	}
	return o
}

// NewNetwork creates an empty in-process network.
func NewNetwork() *Network { return NewNetworkWithOptions(NetworkOptions{}) }

// NewNetworkWithOptions creates an empty network with algorithm toggles.
func NewNetworkWithOptions(opts NetworkOptions) *Network {
	return &Network{
		bus:    transport.NewBus(),
		peers:  make(map[string]*peer.Peer),
		dbs:    make(map[string]*storage.DB),
		addrs:  make(map[string]string),
		epochs: make(map[string]uint64),
		https:  make(map[string]*httpapi.Server),
		opts:   opts.resolved(),
	}
}

func (nw *Network) peerOptions(name string, w core.Wrapper) peer.Options {
	eval := cq.EvalOptions{}
	if nw.opts.NestedLoopJoin {
		eval.Strategy = cq.NestedLoop
	}
	return peer.Options{
		Name:              name,
		Wrapper:           w,
		Eval:              eval,
		FullExport:        nw.opts.FullExport,
		LinkPolicies:      nw.opts.Propagation.Policies,
		LinkFilters:       nw.opts.Propagation.Filters,
		MaxStaleness:      nw.opts.Propagation.MaxStaleness,
		PullTimeout:       nw.opts.Propagation.PullTimeout,
		SuspicionTimeout:  nw.opts.Suspicion.Timeout,
		SuspicionInterval: nw.opts.Suspicion.Interval,
	}
}

// AddPeer starts a peer with an in-memory database whose shared schema is
// given as relation declarations, e.g. "emp(id int, name string)".
func (nw *Network) AddPeer(name string, relations ...string) (*Peer, error) {
	return nw.addPeer(name, "", relations...)
}

// AddDurablePeer starts a peer whose database persists under dir (WAL +
// snapshots; state is recovered on restart).
func (nw *Network) AddDurablePeer(name, dir string, relations ...string) (*Peer, error) {
	return nw.addPeer(name, dir, relations...)
}

// storageOptions resolves the network's storage knobs for one peer
// database.
func (nw *Network) storageOptions(dir string) storage.Options {
	return storage.Options{
		Dir:            dir,
		SyncOnCommit:   nw.opts.Storage.SyncOnCommit,
		SegmentBytes:   nw.opts.Storage.SegmentBytes,
		RetainSegments: nw.opts.Storage.RetainSegments,
		ChangelogLimit: nw.opts.Storage.ChangelogLimit,
	}
}

func (nw *Network) addPeer(name, dir string, relations ...string) (*Peer, error) {
	db, err := storage.Open(nw.storageOptions(dir))
	if err != nil {
		return nil, err
	}
	for _, decl := range relations {
		def, err := parseRelDecl(decl)
		if err != nil {
			db.Close()
			return nil, err
		}
		if db.Rel(def.Name) != nil {
			continue // recovered from disk
		}
		if err := db.DefineRelation(def); err != nil {
			db.Close()
			return nil, err
		}
	}
	p, err := nw.join(name, core.NewStoreWrapper(db))
	if err != nil {
		db.Close()
		return nil, err
	}
	nw.mu.Lock()
	nw.dbs[name] = db
	nw.mu.Unlock()
	return p, nil
}

// AddMediator starts a peer without a local database (paper Figure 1's
// dashed LDB): the schema must still be declared, and the relations are
// held transiently in the wrapper, by a memory-only engine.
func (nw *Network) AddMediator(name string, relations ...string) (*Peer, error) {
	schema := relation.NewSchema()
	for _, decl := range relations {
		def, err := parseRelDecl(decl)
		if err != nil {
			return nil, err
		}
		if err := schema.Add(def); err != nil {
			return nil, err
		}
	}
	return nw.join(name, core.NewMediatorWrapper(schema))
}

func (nw *Network) join(name string, w core.Wrapper) (*Peer, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.peers[name]; dup {
		return nil, fmt.Errorf("codb: peer %q already exists", name)
	}
	opts := nw.peerOptions(name, w)
	// A name that was here before rejoins as a fresh incarnation: its
	// directory epoch bumps so the entry overrides any tombstone (or stale
	// address) the survivors still hold.
	epoch, seen := nw.epochs[name]
	if seen {
		epoch++
	}
	nw.epochs[name] = epoch
	opts.Epoch = epoch
	var addr string
	if nw.opts.Transport.TCP {
		tcp, err := transport.NewTCP(name, nw.opts.Transport.ListenAddr)
		if err != nil {
			return nil, err
		}
		addr = tcp.Addr()
		// Hand the joiner the dial addresses of everyone already here;
		// they learn the joiner's below.
		dir := make(map[string]string, len(nw.addrs))
		for node, a := range nw.addrs {
			dir[node] = a
		}
		opts.Transport = tcp
		opts.Directory = dir
	} else {
		tr, err := nw.bus.Join(name)
		if err != nil {
			return nil, err
		}
		opts.Transport = tr
	}
	if wrap := nw.opts.Transport.Wrap; wrap != nil {
		opts.Transport = wrap(name, opts.Transport)
	}
	p, err := peer.New(opts)
	if err != nil {
		opts.Transport.Close()
		return nil, err
	}
	if nw.opts.HTTP.Enable {
		srv, err := httpapi.New(httpapi.Options{
			Addr:    nw.opts.HTTP.Addr,
			Peer:    p,
			Resolve: nw.resolvePeer,
		})
		if err != nil {
			p.Stop()
			return nil, err
		}
		nw.https[name] = srv
	}
	if nw.opts.Transport.TCP {
		nw.addrs[name] = addr
	}
	// Flood the joiner's epoch-stamped entry: it overrides tombstones and
	// stale addresses of earlier incarnations of the same name.
	entry := []msg.DirEntry{{Node: name, Addr: addr, Epoch: epoch}}
	for _, other := range nw.peers {
		other.ApplyDirectoryEntries(entry)
	}
	if nw.super != nil {
		nw.super.Peer().ApplyDirectoryEntries(entry)
	}
	nw.peers[name] = p
	return p, nil
}

// resolvePeer is the gateways' node resolver.
func (nw *Network) resolvePeer(node string) (*peer.Peer, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if p := nw.peers[node]; p != nil {
		return p, nil
	}
	return nil, unknownPeer(node)
}

// MustAddPeer is AddPeer panicking on error.
func (nw *Network) MustAddPeer(name string, relations ...string) *Peer {
	p, err := nw.AddPeer(name, relations...)
	if err != nil {
		panic(err)
	}
	return p
}

// JoinRemote starts a peer with an in-memory database and joins it into a
// LIVE REMOTE network through the peer listening at addr (a super-peer or
// any admitting peer of another process): the new peer dials the admitter,
// sends a wire-level JoinRequest, and installs the rules and directory from
// the JoinAccept handoff. Requires Transport.TCP. On a failed handshake the
// peer is removed again and the error returned.
func (nw *Network) JoinRemote(ctx context.Context, name, addr string, relations ...string) (*Peer, error) {
	if !nw.opts.Transport.TCP {
		return nil, fmt.Errorf("codb: JoinRemote requires Transport.TCP")
	}
	p, err := nw.AddPeer(name, relations...)
	if err != nil {
		return nil, err
	}
	if err := p.JoinVia(ctx, addr); err != nil {
		nw.RemovePeer(name)
		return nil, err
	}
	return p, nil
}

// Peer returns a running peer by name (nil if absent).
func (nw *Network) Peer(name string) *Peer {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.peers[name]
}

// Peers lists the network's peer names.
func (nw *Network) Peers() []string {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([]string, 0, len(nw.peers))
	for name := range nw.peers {
		out = append(out, name)
	}
	return out
}

// RemovePeer stops a peer and removes it from the network (it "disappears",
// as the paper's dynamic networks allow). A database the network opened for
// the peer is closed — durable ones checkpoint on the way out, so a future
// AddDurablePeer over the same directory recovers from the snapshot instead
// of replaying the whole log. A tombstone for the departed name is applied
// on every survivor (and the super-peer): pipes to it come down, in-flight
// deficits are written off, nobody dials its stale address again, and the
// survivors' incremental-export state toward the name is reset — if a fresh
// peer later takes it, nothing is wrongly assumed already materialised
// there (a durable replacement over the same directory just costs one full
// re-export).
func (nw *Network) RemovePeer(name string) {
	nw.mu.Lock()
	p := nw.peers[name]
	delete(nw.peers, name)
	db := nw.dbs[name]
	delete(nw.dbs, name)
	srv := nw.https[name]
	delete(nw.https, name)
	delete(nw.addrs, name)
	epoch := nw.epochs[name] // the incarnation being tombstoned
	rest := make([]*peer.Peer, 0, len(nw.peers))
	for _, other := range nw.peers {
		rest = append(rest, other)
	}
	super := nw.super
	nw.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	tomb := []msg.DirEntry{{Node: name, Epoch: epoch, Deleted: true}}
	for _, other := range rest {
		other.ApplyDirectoryEntries(tomb)
	}
	if super != nil {
		super.Peer().ApplyDirectoryEntries(tomb)
	}
	if p != nil {
		p.Stop()
	}
	if db != nil {
		db.Close()
	}
}

// RestartDurablePeer stops a durable peer in place — a crash-stop: no leave,
// no tombstone, no directory change — and brings a fresh incarnation up over
// the same directory and the same listen address, as a process restart does.
// Survivors see only the pipe drop and the silence; with the suspicion
// detector on they write the incarnation off, pace redials, and heal when
// the replacement answers — resuming exports from the durable watermarks
// rather than re-shipping history. Contrast RemovePeer, which tombstones the
// name and resets export state toward it.
func (nw *Network) RestartDurablePeer(name, dir string) (*Peer, error) {
	nw.mu.Lock()
	p := nw.peers[name]
	db := nw.dbs[name]
	addr := nw.addrs[name]
	if p == nil || db == nil || addr == "" {
		nw.mu.Unlock()
		return nil, fmt.Errorf("codb: restart %s: not a running durable TCP peer", name)
	}
	epoch := nw.epochs[name] + 1
	peerDir := make(map[string]string, len(nw.addrs))
	for node, a := range nw.addrs {
		if node != name {
			peerDir[node] = a
		}
	}
	delete(nw.peers, name)
	delete(nw.dbs, name)
	nw.mu.Unlock()

	p.Stop()
	if err := db.Close(); err != nil {
		return nil, err
	}

	db2, err := storage.Open(nw.storageOptions(dir))
	if err != nil {
		return nil, err
	}
	tcp, err := transport.NewTCP(name, addr)
	if err != nil {
		db2.Close()
		return nil, err
	}
	opts := nw.peerOptions(name, core.NewStoreWrapper(db2))
	opts.Epoch = epoch
	opts.Transport = tcp
	opts.Directory = peerDir
	if wrap := nw.opts.Transport.Wrap; wrap != nil {
		opts.Transport = wrap(name, opts.Transport)
	}
	p2, err := peer.New(opts)
	if err != nil {
		db2.Close()
		return nil, err
	}
	nw.mu.Lock()
	nw.peers[name] = p2
	nw.dbs[name] = db2
	nw.epochs[name] = epoch
	nw.mu.Unlock()
	return p2, nil
}

// AddRule declares a GLAV coordination rule on both endpoints, e.g.
// `target.rel(x) <- source.rel(x), x > 0`.
func (nw *Network) AddRule(id, text string) error {
	rule, err := cq.ParseRule(id, text)
	if err != nil {
		return err
	}
	tgt, src := nw.Peer(rule.Target), nw.Peer(rule.Source)
	if tgt == nil || src == nil {
		return fmt.Errorf("codb: rule %s links %s <- %s but both peers must exist", id, rule.Target, rule.Source)
	}
	if err := tgt.AddRule(id, text); err != nil {
		return err
	}
	return src.AddRule(id, text)
}

// SetLinkPolicy configures one rule's propagation policy on both endpoints:
// mode is "push", "pull", "adaptive" or "filter"; filter is an optional
// comma-separated comparison list over the rule's frontier variables.
func (nw *Network) SetLinkPolicy(id, mode, filter string) error {
	nw.mu.Lock()
	ps := make([]*peer.Peer, 0, len(nw.peers))
	for _, p := range nw.peers {
		ps = append(ps, p)
	}
	nw.mu.Unlock()
	applied := false
	for _, p := range ps {
		if err := p.SetLinkPolicy(id, mode, filter); err != nil {
			return err
		}
		for _, r := range p.Rules() {
			if r.ID == id {
				applied = true
			}
		}
	}
	if !applied {
		return fmt.Errorf("codb: link policy for %s: no peer knows the rule", id)
	}
	return nil
}

// PeerPropagationStats returns a node's propagation-policy snapshot
// (per-link counters, staleness quantiles); ok is false for unknown peers.
func (nw *Network) PeerPropagationStats(node string) (stats PropagationStats, ok bool) {
	p := nw.Peer(node)
	if p == nil {
		return PropagationStats{}, false
	}
	return p.PropagationStats(), true
}

// CatchUp drives every lazy (pull/adaptive) link in the network to the
// fixpoint eager push would have reached: each round asks every peer to pull
// all of its outgoing links, and rounds repeat until one leaves every peer's
// commit LSN where it was. A pull is transitive and materialises at every
// peer it passes, so only that network-wide condition says nothing is left
// pending. It returns the number of tuples the pulling peers materialised
// themselves (rows a pull left at intermediate peers are not counted).
// After CatchUp, pulled databases are byte-identical to what all-push
// propagation yields.
func (nw *Network) CatchUp(ctx context.Context) (int, error) {
	nw.mu.Lock()
	ps := make([]*peer.Peer, 0, len(nw.peers))
	for _, p := range nw.peers {
		ps = append(ps, p)
	}
	nw.mu.Unlock()
	lsns := func() []uint64 {
		out := make([]uint64, len(ps))
		for i, p := range ps {
			out[i] = p.LSN()
		}
		return out
	}
	total := 0
	for {
		before := lsns()
		for _, p := range ps {
			n, err := p.CatchUp(ctx)
			if err != nil {
				return total, err
			}
			total += n
		}
		if slices.Equal(before, lsns()) {
			return total, nil
		}
	}
}

// MustAddRule is AddRule panicking on error.
func (nw *Network) MustAddRule(id, text string) {
	if err := nw.AddRule(id, text); err != nil {
		panic(err)
	}
}

// Insert adds rows to a peer's local relation.
func (nw *Network) Insert(node, rel string, rows ...Tuple) error {
	p := nw.Peer(node)
	if p == nil {
		return unknownPeer(node)
	}
	return p.Insert(rel, rows...)
}

// Update runs a global update initiated at origin and returns the
// initiator's report. After it completes, every reachable node has
// materialised all data implied by the coordination rules, and local
// queries need no network access.
func (nw *Network) Update(ctx context.Context, origin string) (Report, error) {
	p := nw.Peer(origin)
	if p == nil {
		return Report{}, unknownPeer(origin)
	}
	return p.RunUpdate(ctx)
}

// ScopedUpdate runs a query-dependent update (paper §2): it materialises,
// at origin and along the way, only the data transitively relevant to the
// given relations of the origin's schema.
func (nw *Network) ScopedUpdate(ctx context.Context, origin string, rels ...string) (Report, error) {
	p := nw.Peer(origin)
	if p == nil {
		return Report{}, unknownPeer(origin)
	}
	return p.RunScopedUpdate(ctx, rels)
}

// Query runs a distributed query at the node: answered from local data
// immediately, with transitively relevant remote data fetched through the
// coordination rules for the duration of the query.
func (nw *Network) Query(ctx context.Context, node, query string, mode QueryMode) ([]Tuple, error) {
	p := nw.Peer(node)
	if p == nil {
		return nil, unknownPeer(node)
	}
	st, err := p.Prepare(query)
	if err != nil {
		return nil, err
	}
	return st.Query(ctx, mode)
}

// QueryStream is Query with streaming results: answers arrive on the first
// channel as they are discovered; the second channel delivers the session
// report when the query completes. When ctx ends first, both channels close
// without a report and the session runs on without the reader.
func (nw *Network) QueryStream(ctx context.Context, node, query string, mode QueryMode) (<-chan Tuple, <-chan Report, error) {
	p := nw.Peer(node)
	if p == nil {
		return nil, nil, unknownPeer(node)
	}
	st, err := p.Prepare(query)
	if err != nil {
		return nil, nil, err
	}
	return st.QueryStream(ctx, mode)
}

// PeerReadStats returns a node's read-path counters; ok is false for
// unknown peers.
func (nw *Network) PeerReadStats(node string) (stats ReadStats, ok bool) {
	p := nw.Peer(node)
	if p == nil {
		return ReadStats{}, false
	}
	return p.ReadStats(), true
}

// PeerStorageStats returns a node's storage-engine report (per-relation
// row/byte counts, WAL size, logged commits and their fsyncs); ok is false
// for unknown peers.
func (nw *Network) PeerStorageStats(node string) (stats StorageStats, ok bool) {
	p := nw.Peer(node)
	if p == nil {
		return StorageStats{}, false
	}
	return p.StorageStats()
}

// PeerWireStats returns a node's TCP wire counters — envelope frames and
// bytes written, headers included; ok is false for unknown peers and
// networks on the in-process bus (no wire).
func (nw *Network) PeerWireStats(node string) (frames, bytes uint64, ok bool) {
	p := nw.Peer(node)
	if p == nil {
		return 0, 0, false
	}
	return p.WireStats()
}

// PeerMembershipStats returns a node's failure-detector and directory
// snapshot (suspicion states, suspect/down/heal counters, live and
// tombstoned directory entries); ok is false for unknown peers.
func (nw *Network) PeerMembershipStats(node string) (stats MembershipStats, ok bool) {
	p := nw.Peer(node)
	if p == nil {
		return MembershipStats{}, false
	}
	return p.MembershipStats(), true
}

// StartGateway starts one HTTP gateway serving every node of the network
// — requests select their node with the ?node= query parameter — and
// returns the bound address. Independent of the per-peer gateways of
// HTTP.Enable; at most one per network.
func (nw *Network) StartGateway(addr string) (string, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.gw != nil {
		return "", fmt.Errorf("codb: network gateway already running on %s", nw.gw.Addr())
	}
	srv, err := httpapi.New(httpapi.Options{Addr: addr, Resolve: nw.resolvePeer})
	if err != nil {
		return "", err
	}
	nw.gw = srv
	return srv.Addr(), nil
}

// PeerHTTPAddr returns the listen address of a node's HTTP gateway; ok is
// false for unknown peers and networks without HTTP.Enable.
func (nw *Network) PeerHTTPAddr(node string) (addr string, ok bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	srv := nw.https[node]
	if srv == nil {
		return "", false
	}
	return srv.Addr(), true
}

// LocalQuery evaluates a query against a node's local database only.
func (nw *Network) LocalQuery(node, query string, mode QueryMode) ([]Tuple, error) {
	p := nw.Peer(node)
	if p == nil {
		return nil, unknownPeer(node)
	}
	st, err := p.Prepare(query)
	if err != nil {
		return nil, err
	}
	return st.LocalQuery(mode)
}

// SuperPeer returns (starting on first use) the network's super-peer.
func (nw *Network) SuperPeer() (*SuperPeer, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.super != nil {
		return nw.super, nil
	}
	var tr transport.Transport
	var spOpts superpeer.Options
	if nw.opts.Transport.TCP {
		tcp, err := transport.NewTCP("super", nw.opts.Transport.ListenAddr)
		if err != nil {
			return nil, err
		}
		tr = tcp
		spOpts = superpeer.Options{Transport: tcp, Addr: tcp.Addr()}
		nw.addrs["super"] = tcp.Addr()
		update := map[string]string{"super": tcp.Addr()}
		for _, p := range nw.peers {
			p.SetDirectory(update)
		}
	} else {
		bt, err := nw.bus.Join("super")
		if err != nil {
			return nil, err
		}
		tr = bt
		spOpts = superpeer.Options{Transport: bt}
	}
	sp, err := superpeer.New(spOpts)
	if err != nil {
		tr.Close()
		delete(nw.addrs, "super")
		return nil, err
	}
	dir := make(map[string]string, len(nw.peers))
	for name := range nw.peers {
		dir[name] = nw.addrs[name]
	}
	sp.Peer().SetDirectory(dir)
	nw.super = sp
	return sp, nil
}

// Close stops every peer (and the super-peer) and closes the databases the
// network opened; durable ones checkpoint pending commits on the way out.
func (nw *Network) Close() {
	nw.mu.Lock()
	peers := nw.peers
	nw.peers = make(map[string]*peer.Peer)
	dbs := nw.dbs
	nw.dbs = make(map[string]*storage.DB)
	https := nw.https
	nw.https = make(map[string]*httpapi.Server)
	nw.addrs = make(map[string]string)
	nw.epochs = make(map[string]uint64)
	gw := nw.gw
	nw.gw = nil
	super := nw.super
	nw.super = nil
	nw.mu.Unlock()
	if gw != nil {
		gw.Close()
	}
	for _, srv := range https {
		srv.Close()
	}
	for _, p := range peers {
		p.Stop()
	}
	if super != nil {
		super.Stop()
	}
	for _, db := range dbs {
		db.Close()
	}
}

// NewNetworkFromConfig builds a whole in-process network from a
// configuration file: one in-memory peer per declared node, all rules
// installed on both endpoints.
func NewNetworkFromConfig(text string) (*Network, error) {
	return NewNetworkFromConfigWithOptions(text, NetworkOptions{})
}

// NewNetworkFromConfigWithOptions is NewNetworkFromConfig with algorithm
// toggles.
func NewNetworkFromConfigWithOptions(text string, opts NetworkOptions) (*Network, error) {
	cfg, err := config.Parse(text)
	if err != nil {
		return nil, err
	}
	nw := NewNetworkWithOptions(opts)
	for _, node := range cfg.Nodes {
		db, err := storage.Open(nw.storageOptions(""))
		if err != nil {
			nw.Close()
			return nil, err
		}
		if err := db.DefineSchema(node.Schema); err != nil {
			nw.Close()
			return nil, err
		}
		if _, err := nw.join(node.Name, core.NewStoreWrapper(db)); err != nil {
			nw.Close()
			return nil, err
		}
		nw.mu.Lock()
		nw.dbs[node.Name] = db
		nw.mu.Unlock()
	}
	for _, r := range cfg.Rules {
		if err := nw.AddRule(r.ID, r.Text); err != nil {
			nw.Close()
			return nil, err
		}
	}
	return nw, nil
}

// ParseConfig parses a configuration file (for tools building on the
// library).
func ParseConfig(text string) (*config.Config, error) { return config.Parse(text) }

// parseRelDecl parses "emp(id int, name string)".
func parseRelDecl(decl string) (*relation.RelDef, error) {
	cfg, err := config.Parse("node tmp\n rel " + decl + "\nend\n")
	if err != nil {
		return nil, fmt.Errorf("codb: bad relation declaration %q: %v", decl, err)
	}
	names := cfg.Nodes[0].Schema.Names()
	return cfg.Nodes[0].Schema.Rel(names[0]), nil
}
