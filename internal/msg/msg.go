// Package msg defines the typed messages coDB peers exchange — the
// vocabulary the paper's JXTA layer envelopes carry: global update and query
// requests, streamed query results, acknowledgements for the diffusing
// computation, coordination-rule broadcasts, statistics collection, and
// topology discovery gossip.
//
// Payloads are plain structs; the TCP transport serialises them with the
// binary codec in this package (see binary.go and internal/wire), the
// in-process bus passes them by value. Size() gives a transport-independent
// measure of a payload's data volume, used by the statistics module (paper
// §4: "the volume of the data in each message").
//
// # Batching
//
// Batch is the one payload that is transport machinery rather than protocol
// vocabulary: it packs several payloads bound for the same destination into
// a single envelope, so the outbound pipeline (transport.Outbox) can
// coalesce a burst of queued messages into one frame on the wire. Batches
// are exactly one level deep (a Batch never contains a Batch), and they are
// invisible above the transport: receiving transports unpack a Batch and
// deliver its payloads as individual envelopes, in order, so peer and core
// logic — including the Dijkstra–Scholten per-message accounting — never
// sees one.
package msg

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"codb/internal/relation"
)

// Kind distinguishes the two session kinds sharing the propagation engine.
type Kind uint8

const (
	// KindUpdate is a global update: results are materialised into the
	// local databases (paper §2–3).
	KindUpdate Kind = iota + 1
	// KindQuery is query-time fetching: results live in a per-session
	// overlay and answer one query at the origin (paper §1).
	KindQuery
	// KindScoped is a query-dependent update (paper §2's "global and
	// query-dependent update requests"): propagation follows the
	// relevance-filtered, path-labelled query discipline, but results are
	// materialised into the local databases along the way.
	KindScoped
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindQuery:
		return "query"
	case KindScoped:
		return "scoped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Payload is implemented by every message type.
type Payload interface {
	// Size returns the transport-independent data volume of the payload
	// in bytes (tuple payloads measured by their binary encoding).
	Size() int
}

// RuleDef carries one coordination rule by ID and concrete syntax, so that
// update requests can establish links on peers that have not seen a
// configuration broadcast (paper §2: requests contain "definitions of
// appropriate coordination rules").
type RuleDef struct {
	ID   string
	Text string
}

// SessionRequest asks the receiver (the source side of the listed rules) to
// export data for them and to propagate the session onward. Path is the
// node-ID label of the paper's diffusing computation: a node never forwards
// a request to a node already in the label.
type SessionRequest struct {
	SID    string
	Kind   Kind
	Origin string
	Path   []string
	Rules  []RuleDef
}

// Size implements Payload.
func (m *SessionRequest) Size() int {
	n := len(m.SID) + len(m.Origin) + 2
	for _, p := range m.Path {
		n += len(p)
	}
	for _, r := range m.Rules {
		n += len(r.ID) + len(r.Text)
	}
	return n
}

// ExportMode records how the exporter produced a SessionData batch, so the
// statistical module can attribute wire savings to the cross-session
// incremental machinery.
type ExportMode uint8

const (
	// ExportFull is a full evaluation of the link (first session, paper-
	// faithful FullExport mode, or a wrapper without change capture).
	ExportFull ExportMode = iota
	// ExportIncremental is a cross-session incremental export: only tuples
	// committed past the link's persistent LSN watermark were evaluated.
	ExportIncremental
	// ExportFallback is a full re-evaluation forced by lost change history
	// (changelog truncation, deletes, or a restart past a checkpoint).
	ExportFallback
	// ExportSessionDelta is the in-session semi-naive step: a re-export
	// triggered by data that arrived during the same session.
	ExportSessionDelta
)

// String names the mode.
func (m ExportMode) String() string {
	switch m {
	case ExportFull:
		return "full"
	case ExportIncremental:
		return "incremental"
	case ExportFallback:
		return "fallback"
	case ExportSessionDelta:
		return "delta"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// SessionData ships frontier bindings for one coordination rule from its
// source node to its target node. Kind and Origin let a node that first
// hears of a session through data (updates push proactively) join it. Path
// is the update propagation path the data has travelled (for the
// longest-path statistic); Seq numbers the batches per (session, rule).
// Mode tells the importer how the batch was produced; Skipped counts the
// body tuples the exporter's watermark let it skip re-evaluating.
type SessionData struct {
	SID      string
	Kind     Kind
	Origin   string
	RuleID   string
	Bindings []relation.Tuple
	Path     []string
	Seq      int
	Mode     ExportMode
	Skipped  int
}

// Size implements Payload.
func (m *SessionData) Size() int {
	n := len(m.SID) + len(m.RuleID) + 8
	for _, p := range m.Path {
		n += len(p)
	}
	for _, t := range m.Bindings {
		n += t.EncodedLen()
	}
	return n
}

// SessionAck acknowledges N basic messages of a session, for the
// Dijkstra–Scholten termination detection. Acks are control traffic: they
// are not themselves acknowledged.
type SessionAck struct {
	SID string
	N   int
}

// Size implements Payload.
func (m *SessionAck) Size() int { return len(m.SID) + 4 }

// SessionDone announces that the initiator has detected termination; it
// floods the network (receivers forward it once) so that every participant
// finalises its per-session state and reports.
type SessionDone struct {
	SID    string
	Origin string
}

// Size implements Payload.
func (m *SessionDone) Size() int { return len(m.SID) + len(m.Origin) }

// RulesBroadcast carries a coordination-rules configuration file from the
// super-peer to every peer (paper §4). Version lets peers ignore stale
// re-deliveries during the flood.
type RulesBroadcast struct {
	Version int
	Text    string
}

// Size implements Payload.
func (m *RulesBroadcast) Size() int { return len(m.Text) + 4 }

// StatsRequest asks every peer for its accumulated statistics. It floods
// the network (forwarded once per ID); peers reply directly to ReplyTo,
// dialing Addr when they have no pipe to it yet.
type StatsRequest struct {
	ID      string
	ReplyTo string
	Addr    string
}

// Size implements Payload.
func (m *StatsRequest) Size() int { return len(m.ID) + len(m.ReplyTo) + len(m.Addr) }

// UpdateReport is the per-node record of one session, as the paper's
// statistical module accumulates it (§4).
type UpdateReport struct {
	SID    string
	Kind   Kind
	Origin string
	// StartUnixNano/EndUnixNano bound the node's participation.
	StartUnixNano, EndUnixNano int64
	// MsgsPerRule / BytesPerRule / TuplesPerRule count the SessionData
	// messages received per coordination rule and their volume.
	MsgsPerRule   map[string]int
	BytesPerRule  map[string]int
	TuplesPerRule map[string]int
	// SentMsgs / SentBytes count data shipped to acquaintances.
	SentMsgs, SentBytes int
	// LongestPath is the longest update propagation path observed.
	LongestPath int
	// Queried lists acquaintances this node sent requests to; SentTo lists
	// nodes this node shipped results to.
	Queried, SentTo []string
	// NewTuples counts tuples actually added locally.
	NewTuples int
	// CompensatedLost counts basic messages written off by the sender
	// because their pipe failed (core.CompensateLost / CompensatePeerLoss):
	// nonzero means the session terminated without those messages being
	// delivered, i.e. possibly incomplete materialisation on a dynamic
	// network.
	CompensatedLost int
	// ExportsFull / ExportsIncremental / ExportsFallback count this node's
	// initial link exports by mode (see ExportMode); SkippedByWatermark
	// counts body tuples the persistent LSN watermarks let incremental
	// exports skip re-evaluating.
	ExportsFull, ExportsIncremental, ExportsFallback int
	SkippedByWatermark                               int
	// SuppressedBindings is always 0 and never encoded, on the wire or in
	// JSON: nothing keeps shipped bindings off the wire since export
	// watermarks became exact. It stays only for the benchmark harness,
	// which still reads it.
	SuppressedBindings int `json:"-"`
	// IncrementalMsgs counts received SessionData batches produced by
	// cross-session incremental exports.
	IncrementalMsgs int
	// EvalErrors counts chase/eval failures during this node's exports and
	// answer streaming; nonzero means the session's result may be
	// incomplete (the errors are also surfaced on core.Result).
	EvalErrors int
	// CacheHits / CacheMisses report the query-result cache's involvement
	// in producing this report: set on the synthetic reports of the peer's
	// concurrent local read path (1/0 or 0/1 per query), zero for
	// distributed sessions, which never consult the cache.
	CacheHits, CacheMisses int
}

// StatsReport returns a peer's reports to the super-peer.
type StatsReport struct {
	ID      string
	Node    string
	Reports []UpdateReport
}

// Size implements Payload.
func (m *StatsReport) Size() int {
	n := len(m.ID) + len(m.Node)
	for _, r := range m.Reports {
		n += len(r.SID) + len(r.Origin) + 8*6
		n += 16 * (len(r.MsgsPerRule) + len(r.BytesPerRule) + len(r.TuplesPerRule))
		for _, q := range r.Queried {
			n += len(q)
		}
		for _, s := range r.SentTo {
			n += len(s)
		}
	}
	return n
}

// StartUpdateCmd asks a peer to initiate a global update — how the
// super-peer drives experiments (paper §4). The peer reports completion to
// ReplyTo with an UpdateFinished message.
type StartUpdateCmd struct {
	SID     string
	ReplyTo string
}

// Size implements Payload.
func (m *StartUpdateCmd) Size() int { return len(m.SID) + len(m.ReplyTo) }

// UpdateFinished reports a completed update to the requester of a
// StartUpdateCmd.
type UpdateFinished struct {
	SID    string
	Node   string
	Report UpdateReport
}

// Size implements Payload.
func (m *UpdateFinished) Size() int { return len(m.SID) + len(m.Node) + 64 }

// DirEntry is one epoch-stamped directory fact: where a node can be
// dialed, or — with Deleted — that it left the network. Epochs make the
// directory last-writer-wins: a fact only replaces an older one when its
// epoch is higher (or it tombstones the same epoch), so a peer rejoining
// at a new address overrides the stale entry everywhere, and a tombstone
// lets the directory finally forget a departed name instead of re-dialing
// it forever. Epoch 0 is the static-bootstrap epoch (configuration files).
type DirEntry struct {
	Node    string
	Addr    string
	Epoch   uint64
	Deleted bool
}

// JoinRequest announces a node to an admitting peer: the joiner's name and
// dial-back address. The admitter assigns the joiner's directory epoch and
// answers with a JoinAccept.
type JoinRequest struct {
	Node string
	Addr string
}

// Size implements Payload.
func (m *JoinRequest) Size() int { return len(m.Node) + len(m.Addr) }

// JoinAccept admits a node into a live network: the admitting peer's name,
// the directory epoch assigned to the joiner, the current coordination-rules
// configuration (version + concrete syntax, so the joiner needs no separate
// broadcast), and an epoch-stamped snapshot of the whole directory.
type JoinAccept struct {
	Node         string
	Epoch        uint64
	RulesVersion int
	RulesText    string
	Directory    []DirEntry
}

// Size implements Payload.
func (m *JoinAccept) Size() int {
	n := len(m.Node) + len(m.RulesText) + 12
	for _, e := range m.Directory {
		n += len(e.Node) + len(e.Addr) + 9
	}
	return n
}

// Leave is a coordinated departure notice: survivors tombstone the node's
// directory entry at the given epoch, write off its in-flight deficits and
// reset their exporter watermarks toward it.
type Leave struct {
	Node  string
	Epoch uint64
}

// Size implements Payload.
func (m *Leave) Size() int { return len(m.Node) + 8 }

// DirectoryDelta floods epoch-stamped directory facts (joins, address
// changes, tombstones). Receivers apply the entries locally and never
// forward them: deltas are star-flooded by the peer that produced them, so
// the epoch precedence needs no gossip-loop suppression.
type DirectoryDelta struct {
	Entries []DirEntry
}

// Size implements Payload.
func (m *DirectoryDelta) Size() int {
	n := 0
	for _, e := range m.Entries {
		n += len(e.Node) + len(e.Addr) + 9
	}
	return n
}

// UpdateHint is the pull-policy replacement for a SessionData export: the
// exporter of a pull-configured link announces that its extent advanced to
// LSN without shipping the delta. The importer marks the link stale and
// pulls the actual bindings on demand with a scoped session over the link
// (next local query touching the relation, a staleness deadline, or an
// explicit pull), so the data itself always travels as SessionData. Hints
// are control traffic, not basic messages: they carry no session
// obligations and are never counted in the Dijkstra–Scholten deficit.
type UpdateHint struct {
	RuleID string
	// LSN is the exporter's commit LSN at hint time. It is informational:
	// the pull that clears the staleness exports from the link's own
	// durable watermark.
	LSN uint64
}

// Size implements Payload.
func (m *UpdateHint) Size() int { return len(m.RuleID) + 8 }

// LinkDemand is the adaptive policy's feedback signal: the importer of a
// rule tells the exporter which effective mode (push or pull) its observed
// read demand justifies. Exporters honor it only for links configured
// adaptive; fixed push/pull/filter links ignore it. Control traffic,
// sessionless.
type LinkDemand struct {
	RuleID string
	// Mode is the requested effective mode: 0 = push, 1 = pull.
	Mode uint8
}

// Size implements Payload.
func (m *LinkDemand) Size() int { return len(m.RuleID) + 1 }

// Heartbeat announces pipe liveness: the transport emits one per interval on
// every V2 pipe so the receiving peer's suspicion state machine can tell a
// quiet-but-healthy acquaintance from a partitioned one. Like the rest of
// the 0x20 family, heartbeats are control traffic, not basic messages: they
// carry no session obligations and are never counted in the
// Dijkstra–Scholten deficit. Seq increments per emitting transport, so a
// resumed stream is distinguishable from a duplicate in traces.
type Heartbeat struct {
	Seq uint64
}

// Size implements Payload.
func (m *Heartbeat) Size() int { return 8 }

// Batch packs several payloads for the same destination into one envelope
// (see the package comment). Order is the send order; receivers deliver the
// packed payloads individually, preserving it.
type Batch struct {
	Payloads []Payload
}

// Size implements Payload (the sum of the packed payloads).
func (m *Batch) Size() int {
	n := 0
	for _, p := range m.Payloads {
		n += p.Size()
	}
	return n
}

// sidCounter disambiguates IDs minted in the same process.
var sidCounter atomic.Uint64

// NewSID mints a globally unique session ID, prefixed by the minting node
// (the paper uses JXTA-generated identifiers).
func NewSID(node string) string {
	var salt [6]byte
	if _, err := rand.Read(salt[:]); err != nil {
		// Fall back to the counter alone; uniqueness within the process
		// still holds.
		binary.LittleEndian.PutUint32(salt[:4], uint32(sidCounter.Load()))
	}
	return fmt.Sprintf("%s-%d-%s", node, sidCounter.Add(1), hex.EncodeToString(salt[:]))
}
