package msg

import (
	"encoding/binary"
	"fmt"
	"sort"

	"codb/internal/relation"
)

// Binary payload codec for the versioned wire protocol (internal/wire).
//
// Every payload type has a fixed one-byte tag, carried in the frame header
// rather than in the body, so a frame body is exactly one payload encoding.
// Bodies are built from four primitives:
//
//	uvarint  — lengths, counts, enums (binary.AppendUvarint)
//	varint   — signed counters and timestamps (binary.AppendVarint, zigzag)
//	string   — uvarint byte length + raw bytes
//	tuple    — uvarint byte length + relation.EncodeTuple (the same
//	           order-preserving encoding the storage engine keys on, so
//	           tuple bodies move between index and wire without
//	           re-serialisation)
//
// Decoding a SessionData keeps those bytes: SessionData.Keys[i] is binding
// i's encoding, which equals Bindings[i].Key() because only canonical
// encodings decode, and the importer stages the batch with them. The
// bindings' values share one slab and the keys one string per message.
//
// Maps encode as a uvarint count followed by key-sorted entries, making the
// encoding deterministic: identical payloads produce identical bytes (the
// golden-vector tests in internal/wire depend on this). Decoding is strict —
// trailing bytes after a well-formed payload are an error — so a corrupt
// frame cannot be silently half-read.
//
// Compatibility: the tag space and field order are part of the wire
// protocol version (internal/wire): the session family at 0x10–0x1F and the
// lazy-link family at 0x20+ (UpdateHint, LinkDemand, and the Heartbeat
// liveness frame). Adding a payload type means a new tag; changing a field
// order or width means a new protocol version.

// Tag identifies a payload type on the wire. Tags 0x00–0x0F are reserved
// for the wire layer itself (handshake frames); payload tags start at 0x10.
type Tag uint8

const (
	TagSessionRequest Tag = 0x10 + iota
	TagSessionData
	TagSessionAck
	_ // 0x13 is unassigned (it carried the per-link close notice)
	TagSessionDone
	TagRulesBroadcast
	TagStatsRequest
	TagStatsReport
	TagStartUpdateCmd
	TagUpdateFinished
)

// Membership and framing tags. 0x1A is unassigned (it carried the legacy
// address gossip): a body tagged with it is refused as an unknown tag.
const (
	TagBatch          Tag = 0x1B
	TagJoinRequest    Tag = 0x1C
	TagJoinAccept     Tag = 0x1D
	TagLeave          Tag = 0x1E
	TagDirectoryDelta Tag = 0x1F
)

// Lazy-link and liveness tags, in their own block at 0x20. 0x21 and 0x22
// are unassigned: a body tagged with either is refused as an unknown tag.
const (
	TagUpdateHint Tag = 0x20
	TagLinkDemand Tag = 0x23
	TagHeartbeat  Tag = 0x24
)

// String names the tag for diagnostics.
func (t Tag) String() string {
	switch t {
	case TagSessionRequest:
		return "SessionRequest"
	case TagSessionData:
		return "SessionData"
	case TagSessionAck:
		return "SessionAck"
	case TagSessionDone:
		return "SessionDone"
	case TagRulesBroadcast:
		return "RulesBroadcast"
	case TagStatsRequest:
		return "StatsRequest"
	case TagStatsReport:
		return "StatsReport"
	case TagStartUpdateCmd:
		return "StartUpdateCmd"
	case TagUpdateFinished:
		return "UpdateFinished"
	case TagBatch:
		return "Batch"
	case TagJoinRequest:
		return "JoinRequest"
	case TagJoinAccept:
		return "JoinAccept"
	case TagLeave:
		return "Leave"
	case TagDirectoryDelta:
		return "DirectoryDelta"
	case TagUpdateHint:
		return "UpdateHint"
	case TagLinkDemand:
		return "LinkDemand"
	case TagHeartbeat:
		return "Heartbeat"
	default:
		return fmt.Sprintf("tag(0x%02x)", uint8(t))
	}
}

// TagOf returns the wire tag for a payload.
func TagOf(p Payload) (Tag, error) {
	switch p.(type) {
	case *SessionRequest:
		return TagSessionRequest, nil
	case *SessionData:
		return TagSessionData, nil
	case *SessionAck:
		return TagSessionAck, nil
	case *SessionDone:
		return TagSessionDone, nil
	case *RulesBroadcast:
		return TagRulesBroadcast, nil
	case *StatsRequest:
		return TagStatsRequest, nil
	case *StatsReport:
		return TagStatsReport, nil
	case *StartUpdateCmd:
		return TagStartUpdateCmd, nil
	case *UpdateFinished:
		return TagUpdateFinished, nil
	case *Batch:
		return TagBatch, nil
	case *JoinRequest:
		return TagJoinRequest, nil
	case *JoinAccept:
		return TagJoinAccept, nil
	case *Leave:
		return TagLeave, nil
	case *DirectoryDelta:
		return TagDirectoryDelta, nil
	case *UpdateHint:
		return TagUpdateHint, nil
	case *LinkDemand:
		return TagLinkDemand, nil
	case *Heartbeat:
		return TagHeartbeat, nil
	default:
		return 0, fmt.Errorf("msg: no wire tag for %T", p)
	}
}

// ---------------------------------------------------------------------------
// append primitives

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func appendTuple(dst []byte, t relation.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.EncodedLen()))
	return relation.EncodeTuple(dst, t)
}

func appendTuples(dst []byte, ts []relation.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = appendTuple(dst, t)
	}
	return dst
}

func appendIntMap(dst []byte, m map[string]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendVarint(dst, int64(m[k]))
	}
	return dst
}

// appendDirEntries preserves slice order (producers emit entries sorted by
// node, keeping the encoding deterministic like the sorted maps).
func appendDirEntries(dst []byte, es []DirEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		dst = appendString(dst, e.Node)
		dst = appendString(dst, e.Addr)
		dst = binary.AppendUvarint(dst, e.Epoch)
		if e.Deleted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// decode cursor

// reader walks a payload body with a sticky error, so decoders read fields
// in sequence and check once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("msg: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("msg: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and sanity-bounds it against the bytes left
// (every element costs at least one byte), so a corrupt count cannot force a
// huge allocation.
func (r *reader) count() int {
	u := r.uvarint()
	if r.err != nil {
		return 0
	}
	if u > uint64(len(r.b)-r.off) {
		r.fail("msg: count %d exceeds %d remaining bytes", u, len(r.b)-r.off)
		return 0
	}
	return int(u)
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("msg: need %d bytes, have %d", n, len(r.b)-r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("msg: string length %d exceeds %d remaining bytes", n, len(r.b)-r.off)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *reader) strings() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// tupleBytes reads one tuple's length prefix and returns its encoding.
func (r *reader) tupleBytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("msg: tuple length %d exceeds %d remaining bytes", n, len(r.b)-r.off)
		return nil
	}
	return r.take(int(n))
}

// values appends the values encoded in b, one tuple's bytes, to dst.
func (r *reader) values(dst []relation.Value, b []byte) []relation.Value {
	for off := 0; off < len(b); {
		v, vn, err := relation.DecodeValue(b[off:])
		if err != nil {
			r.fail("msg: tuple value %d: %v", len(dst), err)
			return dst
		}
		dst = append(dst, v)
		off += vn
	}
	return dst
}

// bindings decodes a SessionData's tuples and their keys (see
// SessionData.Keys). The values of all tuples come from one slab, sized
// from the first tuple's arity, which is exact: a message's tuples come
// from one rule head. Every later value takes at least one of the bytes
// left, so the slab is never larger than the frame allows, whatever the
// first arity and the count claim. The keys are cut from one string of the
// message's tuple bytes.
func (r *reader) bindings() (bindings []relation.Tuple, keys []string) {
	n := r.count()
	if n == 0 {
		return nil, nil
	}
	start := r.off
	bindings = make([]relation.Tuple, 0, n)
	var slab []relation.Value
	for i := 0; i < n && r.err == nil; i++ {
		b := r.tupleBytes()
		at := len(slab)
		if i == 0 {
			// Decode the first tuple on the stack to learn the arity.
			var first [8]relation.Value
			vs := r.values(first[:0], b)
			size := min(n*len(vs), len(vs)+len(r.b)-r.off)
			slab = append(make([]relation.Value, 0, size), vs...)
		} else {
			slab = r.values(slab, b)
		}
		bindings = append(bindings, relation.Tuple(slab[at:len(slab):len(slab)]))
	}
	if r.err != nil {
		return nil, nil
	}
	section := string(r.b[start:r.off])
	keys = make([]string, n)
	kr := reader{b: r.b[start:r.off]}
	for i := range keys {
		b := kr.tupleBytes()
		keys[i] = section[kr.off-len(b) : kr.off]
	}
	return bindings, keys
}

func (r *reader) intMap() map[string]int {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make(map[string]int, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		out[k] = int(r.varint())
	}
	return out
}

func (r *reader) dirEntries() []DirEntry {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]DirEntry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		e := DirEntry{Node: r.str(), Addr: r.str(), Epoch: r.uvarint()}
		if db := r.take(1); len(db) == 1 {
			e.Deleted = db[0] != 0
		}
		out = append(out, e)
	}
	return out
}

// ---------------------------------------------------------------------------
// per-payload encodings

func appendUpdateReport(dst []byte, u *UpdateReport) []byte {
	dst = appendString(dst, u.SID)
	dst = append(dst, byte(u.Kind))
	dst = appendString(dst, u.Origin)
	dst = binary.AppendVarint(dst, u.StartUnixNano)
	dst = binary.AppendVarint(dst, u.EndUnixNano)
	dst = appendIntMap(dst, u.MsgsPerRule)
	dst = appendIntMap(dst, u.BytesPerRule)
	dst = appendIntMap(dst, u.TuplesPerRule)
	dst = appendStrings(dst, u.Queried)
	dst = appendStrings(dst, u.SentTo)
	for _, v := range []int{
		u.SentMsgs, u.SentBytes, u.LongestPath, u.NewTuples,
		u.CompensatedLost,
		u.ExportsFull, u.ExportsIncremental, u.ExportsFallback,
		u.SkippedByWatermark, u.IncrementalMsgs,
		u.EvalErrors, u.CacheHits, u.CacheMisses,
	} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

func (r *reader) updateReport() UpdateReport {
	var u UpdateReport
	u.SID = r.str()
	if kb := r.take(1); len(kb) == 1 {
		u.Kind = Kind(kb[0])
	}
	u.Origin = r.str()
	u.StartUnixNano = r.varint()
	u.EndUnixNano = r.varint()
	u.MsgsPerRule = r.intMap()
	u.BytesPerRule = r.intMap()
	u.TuplesPerRule = r.intMap()
	u.Queried = r.strings()
	u.SentTo = r.strings()
	for _, p := range []*int{
		&u.SentMsgs, &u.SentBytes, &u.LongestPath, &u.NewTuples,
		&u.CompensatedLost,
		&u.ExportsFull, &u.ExportsIncremental, &u.ExportsFallback,
		&u.SkippedByWatermark, &u.IncrementalMsgs,
		&u.EvalErrors, &u.CacheHits, &u.CacheMisses,
	} {
		*p = int(r.varint())
	}
	return u
}

// AppendPayload appends the body encoding of p (tag not included — the tag
// travels in the frame header; see TagOf).
func AppendPayload(dst []byte, p Payload) ([]byte, error) {
	switch m := p.(type) {
	case *SessionRequest:
		dst = appendString(dst, m.SID)
		dst = append(dst, byte(m.Kind))
		dst = appendString(dst, m.Origin)
		dst = appendStrings(dst, m.Path)
		dst = binary.AppendUvarint(dst, uint64(len(m.Rules)))
		for _, rd := range m.Rules {
			dst = appendString(dst, rd.ID)
			dst = appendString(dst, rd.Text)
		}
		return dst, nil
	case *SessionData:
		dst = appendString(dst, m.SID)
		dst = append(dst, byte(m.Kind))
		dst = appendString(dst, m.Origin)
		dst = appendString(dst, m.RuleID)
		dst = appendTuples(dst, m.Bindings)
		dst = appendStrings(dst, m.Path)
		dst = binary.AppendVarint(dst, int64(m.Seq))
		dst = append(dst, byte(m.Mode))
		dst = binary.AppendVarint(dst, int64(m.Skipped))
		return dst, nil
	case *SessionAck:
		dst = appendString(dst, m.SID)
		dst = binary.AppendVarint(dst, int64(m.N))
		return dst, nil
	case *SessionDone:
		dst = appendString(dst, m.SID)
		dst = appendString(dst, m.Origin)
		return dst, nil
	case *RulesBroadcast:
		dst = binary.AppendVarint(dst, int64(m.Version))
		dst = appendString(dst, m.Text)
		return dst, nil
	case *StatsRequest:
		dst = appendString(dst, m.ID)
		dst = appendString(dst, m.ReplyTo)
		dst = appendString(dst, m.Addr)
		return dst, nil
	case *StatsReport:
		dst = appendString(dst, m.ID)
		dst = appendString(dst, m.Node)
		dst = binary.AppendUvarint(dst, uint64(len(m.Reports)))
		for i := range m.Reports {
			dst = appendUpdateReport(dst, &m.Reports[i])
		}
		return dst, nil
	case *StartUpdateCmd:
		dst = appendString(dst, m.SID)
		dst = appendString(dst, m.ReplyTo)
		return dst, nil
	case *UpdateFinished:
		dst = appendString(dst, m.SID)
		dst = appendString(dst, m.Node)
		dst = appendUpdateReport(dst, &m.Report)
		return dst, nil
	case *JoinRequest:
		dst = appendString(dst, m.Node)
		dst = appendString(dst, m.Addr)
		return dst, nil
	case *JoinAccept:
		dst = appendString(dst, m.Node)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendVarint(dst, int64(m.RulesVersion))
		dst = appendString(dst, m.RulesText)
		dst = appendDirEntries(dst, m.Directory)
		return dst, nil
	case *Leave:
		dst = appendString(dst, m.Node)
		dst = binary.AppendUvarint(dst, m.Epoch)
		return dst, nil
	case *DirectoryDelta:
		return appendDirEntries(dst, m.Entries), nil
	case *UpdateHint:
		dst = appendString(dst, m.RuleID)
		dst = binary.AppendUvarint(dst, m.LSN)
		return dst, nil
	case *LinkDemand:
		dst = appendString(dst, m.RuleID)
		dst = append(dst, m.Mode)
		return dst, nil
	case *Heartbeat:
		dst = binary.AppendUvarint(dst, m.Seq)
		return dst, nil
	case *Batch:
		dst = binary.AppendUvarint(dst, uint64(len(m.Payloads)))
		for _, inner := range m.Payloads {
			tag, err := TagOf(inner)
			if err != nil {
				return nil, err
			}
			if tag == TagBatch {
				return nil, fmt.Errorf("msg: batch nested inside batch")
			}
			body, err := AppendPayload(nil, inner)
			if err != nil {
				return nil, err
			}
			dst = append(dst, byte(tag))
			dst = binary.AppendUvarint(dst, uint64(len(body)))
			dst = append(dst, body...)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("msg: cannot encode %T", p)
	}
}

// DecodePayload decodes a payload body for the given tag. The whole body
// must be consumed: trailing bytes are an error.
func DecodePayload(tag Tag, body []byte) (Payload, error) {
	r := &reader{b: body}
	p, err := decodePayload(tag, r)
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, fmt.Errorf("msg: decode %s: %w", tag, r.err)
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("msg: decode %s: %d trailing bytes", tag, len(body)-r.off)
	}
	return p, nil
}

func decodePayload(tag Tag, r *reader) (Payload, error) {
	switch tag {
	case TagSessionRequest:
		m := &SessionRequest{}
		m.SID = r.str()
		if kb := r.take(1); len(kb) == 1 {
			m.Kind = Kind(kb[0])
		}
		m.Origin = r.str()
		m.Path = r.strings()
		n := r.count()
		if n > 0 {
			m.Rules = make([]RuleDef, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				m.Rules = append(m.Rules, RuleDef{ID: r.str(), Text: r.str()})
			}
		}
		return m, nil
	case TagSessionData:
		m := &SessionData{}
		m.SID = r.str()
		if kb := r.take(1); len(kb) == 1 {
			m.Kind = Kind(kb[0])
		}
		m.Origin = r.str()
		m.RuleID = r.str()
		m.Bindings, m.Keys = r.bindings()
		m.Path = r.strings()
		m.Seq = int(r.varint())
		if mb := r.take(1); len(mb) == 1 {
			m.Mode = ExportMode(mb[0])
		}
		m.Skipped = int(r.varint())
		return m, nil
	case TagSessionAck:
		return &SessionAck{SID: r.str(), N: int(r.varint())}, nil
	case TagSessionDone:
		return &SessionDone{SID: r.str(), Origin: r.str()}, nil
	case TagRulesBroadcast:
		return &RulesBroadcast{Version: int(r.varint()), Text: r.str()}, nil
	case TagStatsRequest:
		return &StatsRequest{ID: r.str(), ReplyTo: r.str(), Addr: r.str()}, nil
	case TagStatsReport:
		m := &StatsReport{ID: r.str(), Node: r.str()}
		n := r.count()
		if n > 0 {
			m.Reports = make([]UpdateReport, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				m.Reports = append(m.Reports, r.updateReport())
			}
		}
		return m, nil
	case TagStartUpdateCmd:
		return &StartUpdateCmd{SID: r.str(), ReplyTo: r.str()}, nil
	case TagUpdateFinished:
		m := &UpdateFinished{SID: r.str(), Node: r.str()}
		m.Report = r.updateReport()
		return m, nil
	case TagJoinRequest:
		return &JoinRequest{Node: r.str(), Addr: r.str()}, nil
	case TagJoinAccept:
		m := &JoinAccept{Node: r.str(), Epoch: r.uvarint()}
		m.RulesVersion = int(r.varint())
		m.RulesText = r.str()
		m.Directory = r.dirEntries()
		return m, nil
	case TagLeave:
		return &Leave{Node: r.str(), Epoch: r.uvarint()}, nil
	case TagDirectoryDelta:
		return &DirectoryDelta{Entries: r.dirEntries()}, nil
	case TagUpdateHint:
		return &UpdateHint{RuleID: r.str(), LSN: r.uvarint()}, nil
	case TagLinkDemand:
		m := &LinkDemand{RuleID: r.str()}
		if mb := r.take(1); len(mb) == 1 {
			m.Mode = mb[0]
		}
		return m, nil
	case TagHeartbeat:
		return &Heartbeat{Seq: r.uvarint()}, nil
	case TagBatch:
		n := r.count()
		m := &Batch{}
		if n > 0 {
			m.Payloads = make([]Payload, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			tb := r.take(1)
			if len(tb) != 1 {
				break
			}
			inner := Tag(tb[0])
			if inner == TagBatch {
				return nil, fmt.Errorf("msg: batch nested inside batch")
			}
			bl := r.uvarint()
			if r.err != nil {
				break
			}
			if bl > uint64(len(r.b)-r.off) {
				r.fail("msg: batch item length %d exceeds %d remaining bytes", bl, len(r.b)-r.off)
				break
			}
			body := r.take(int(bl))
			p, err := DecodePayload(inner, body)
			if err != nil {
				return nil, fmt.Errorf("msg: batch item %d: %w", i, err)
			}
			m.Payloads = append(m.Payloads, p)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("msg: unknown payload tag 0x%02x", uint8(tag))
	}
}

// AppendEnvelope appends the body encoding of an envelope (sender name then
// payload body) and returns the payload's tag for the frame header.
func AppendEnvelope(dst []byte, e Envelope) ([]byte, Tag, error) {
	tag, err := TagOf(e.Payload)
	if err != nil {
		return nil, 0, err
	}
	dst = appendString(dst, e.From)
	dst, err = AppendPayload(dst, e.Payload)
	if err != nil {
		return nil, 0, err
	}
	return dst, tag, nil
}

// DecodeEnvelope decodes an envelope body produced by AppendEnvelope.
func DecodeEnvelope(tag Tag, body []byte) (Envelope, error) {
	r := &reader{b: body}
	from := r.str()
	if r.err != nil {
		return Envelope{}, fmt.Errorf("msg: decode envelope: %w", r.err)
	}
	p, err := DecodePayload(tag, body[r.off:])
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{From: from, Payload: p}, nil
}
