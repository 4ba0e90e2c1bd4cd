// Package console implements the interactive command interpreter behind
// cmd/codb-shell — the reproduction of the paper's query interface and
// peer-discovery windows (Figures 2 and 3). It is a separate package so the
// command handling is unit-testable against in-process networks.
package console

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"codb"
	"codb/internal/superpeer"
)

// Console interprets shell commands against a network.
type Console struct {
	nw  *codb.Network
	out io.Writer
	// Timeout bounds updates and queries (default 5 minutes).
	Timeout time.Duration
	// ReadFile loads configuration files for `reload` (default os.ReadFile).
	ReadFile func(path string) ([]byte, error)
}

// New builds a console over a network, printing to out.
func New(nw *codb.Network, out io.Writer) *Console {
	return &Console{nw: nw, out: out, Timeout: 5 * time.Minute, ReadFile: os.ReadFile}
}

func (c *Console) printf(format string, args ...any) {
	fmt.Fprintf(c.out, format, args...)
}

// Execute runs one command line. It returns false when the session should
// end (quit/exit); errors are printed, not returned, matching interactive
// use.
func (c *Console) Execute(line string) bool {
	line = strings.TrimSpace(line)
	if line == "" {
		return true
	}
	fields := strings.Fields(line)
	cmd := fields[0]
	rest := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	switch cmd {
	case "quit", "exit":
		return false
	case "help":
		c.printf("query|certain|local <node> <query>; update <node>; scoped <node> <rel,...>;\n")
		c.printf("insert <node> <rel> v…; show <node> <rel>; peers <node>; report <node>;\n")
		c.printf("cache <node>; storage <node>; wire <node>; links <node>; membership <node>;\n")
		c.printf("policy <rule> <mode> [filter];\n")
		c.printf("catchup; stats; reload <file>; topology; quit\n")
	case "query", "certain", "local":
		c.runQuery(cmd, rest)
	case "update":
		c.runUpdate(rest)
	case "scoped":
		c.runScoped(fields[1:])
	case "insert":
		c.runInsert(fields[1:])
	case "show":
		c.runShow(fields[1:])
	case "peers":
		c.runPeers(fields[1:])
	case "report":
		c.runReport(fields[1:])
	case "cache":
		c.runCache(fields[1:])
	case "storage":
		c.runStorage(fields[1:])
	case "wire":
		c.runWire(fields[1:])
	case "links":
		c.runLinks(fields[1:])
	case "membership":
		c.runMembership(fields[1:])
	case "policy":
		c.runPolicy(fields[1:])
	case "catchup":
		c.runCatchUp()
	case "stats":
		c.runStats()
	case "reload":
		c.runReload(fields[1:])
	case "topology":
		c.runTopology()
	default:
		c.printf("unknown command %q (try help)\n", cmd)
	}
	return true
}

func (c *Console) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.Timeout)
}

func splitNode(rest string) (string, string, bool) {
	fields := strings.SplitN(rest, " ", 2)
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], strings.TrimSpace(fields[1]), true
}

func (c *Console) runQuery(cmd, rest string) {
	node, q, ok := splitNode(rest)
	if !ok {
		c.printf("usage: %s <node> <query>\n", cmd)
		return
	}
	mode := codb.AllAnswers
	if cmd == "certain" {
		mode = codb.CertainAnswers
	}
	start := time.Now()
	if cmd == "local" {
		rows, err := c.nw.LocalQuery(node, q, mode)
		if err != nil {
			c.printf("error: %v\n", err)
			return
		}
		for _, r := range rows {
			c.printf("  %s\n", r)
		}
		c.printf("%d answers in %v\n", len(rows), time.Since(start).Round(time.Microsecond))
		return
	}
	answers, done, err := c.nw.QueryStream(node, q, mode)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	n := 0
	for row := range answers {
		n++
		c.printf("  %s\n", row)
	}
	rep := <-done
	c.printf("%d answers in %v (%d msgs received)\n",
		n, time.Since(start).Round(time.Microsecond), totalMsgs(rep))
}

func totalMsgs(rep codb.Report) int {
	n := 0
	for _, v := range rep.MsgsPerRule {
		n += v
	}
	return n
}

func (c *Console) runUpdate(node string) {
	if node == "" {
		c.printf("usage: update <node>\n")
		return
	}
	ctx, cancel := c.ctx()
	defer cancel()
	start := time.Now()
	rep, err := c.nw.Update(ctx, node)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("update %s complete in %v: %d new tuples at origin, longest path %d\n",
		rep.SID, time.Since(start).Round(time.Microsecond), rep.NewTuples, rep.LongestPath)
}

func (c *Console) runScoped(args []string) {
	if len(args) != 2 {
		c.printf("usage: scoped <node> <rel[,rel...]>\n")
		return
	}
	ctx, cancel := c.ctx()
	defer cancel()
	rels := strings.Split(args[1], ",")
	rep, err := c.nw.ScopedUpdate(ctx, args[0], rels...)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("scoped update %s complete (%s)\n", rep.SID, strings.Join(rels, ", "))
}

func (c *Console) runInsert(args []string) {
	if len(args) < 3 {
		c.printf("usage: insert <node> <rel> v1 v2 ...\n")
		return
	}
	var row codb.Tuple
	for _, tok := range args[2:] {
		row = append(row, ParseValue(tok))
	}
	if err := c.nw.Insert(args[0], args[1], row); err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("ok\n")
}

// ParseValue interprets a shell token as a typed value: true/false,
// integers, floats, "quoted" or bare strings.
func ParseValue(tok string) codb.Value {
	switch tok {
	case "true":
		return codb.Bool(true)
	case "false":
		return codb.Bool(false)
	}
	if strings.HasPrefix(tok, `"`) {
		return codb.Str(strings.Trim(tok, `"`))
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return codb.Int(int(n))
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return codb.Float(f)
	}
	return codb.Str(tok)
}

func (c *Console) runShow(args []string) {
	if len(args) != 2 {
		c.printf("usage: show <node> <rel>\n")
		return
	}
	p := c.nw.Peer(args[0])
	if p == nil {
		c.printf("unknown peer %s\n", args[0])
		return
	}
	rows := p.Tuples(args[1])
	for _, r := range rows {
		c.printf("  %s\n", r)
	}
	c.printf("%d tuples\n", len(rows))
}

func (c *Console) runPeers(args []string) {
	if len(args) != 1 {
		c.printf("usage: peers <node>\n")
		return
	}
	p := c.nw.Peer(args[0])
	if p == nil {
		c.printf("unknown peer %s\n", args[0])
		return
	}
	out, in := p.Links()
	c.printf("pipes:      %v\n", p.Pipes())
	c.printf("outgoing:   %v\n", out)
	c.printf("incoming:   %v\n", in)
	c.printf("discovered: %v\n", p.Discovered())
}

func (c *Console) runReport(args []string) {
	if len(args) != 1 {
		c.printf("usage: report <node>\n")
		return
	}
	p := c.nw.Peer(args[0])
	if p == nil {
		c.printf("unknown peer %s\n", args[0])
		return
	}
	for _, rep := range p.Reports() {
		dur := time.Duration(rep.EndUnixNano - rep.StartUnixNano)
		c.printf("  %s %s origin=%s dur=%v new=%d sent=%dB queried=%v sentTo=%v\n",
			rep.SID, rep.Kind, rep.Origin, dur.Round(time.Microsecond),
			rep.NewTuples, rep.SentBytes, rep.Queried, rep.SentTo)
	}
}

func (c *Console) runCache(args []string) {
	if len(args) != 1 {
		c.printf("usage: cache <node>\n")
		return
	}
	st, ok := c.nw.PeerReadStats(args[0])
	if !ok {
		c.printf("no read path on %s (unknown peer)\n", args[0])
		return
	}
	c.printf("query cache: %d entries, %d hits, %d misses (%d stale)\n",
		st.Entries, st.Hits, st.Misses, st.Stale)
}

func (c *Console) runWire(args []string) {
	if len(args) != 1 {
		c.printf("usage: wire <node>\n")
		return
	}
	frames, bytes, ok := c.nw.PeerWireStats(args[0])
	if !ok {
		c.printf("no wire on %s (unknown peer, or in-process bus)\n", args[0])
		return
	}
	c.printf("wire: %d frames, %d bytes sent (headers included)\n", frames, bytes)
	if p := c.nw.Peer(args[0]); p != nil {
		if ob := p.OutboxStats(); ob.Frames > 0 {
			c.printf("outbox: %d payloads in %d frames (%d batches), %.2f payloads/frame\n",
				ob.Payloads, ob.Frames, ob.Batches, float64(ob.Payloads)/float64(ob.Frames))
		}
	}
}

func (c *Console) runStorage(args []string) {
	if len(args) != 1 {
		c.printf("usage: storage <node>\n")
		return
	}
	st, ok := c.nw.PeerStorageStats(args[0])
	if !ok {
		c.printf("no storage engine on %s (unknown peer)\n", args[0])
		return
	}
	c.printf("commit LSN: %d, WAL: %d bytes\n", st.LSN, st.WALBytes)
	if st.WAL.Segments > 0 {
		c.printf("wal segments: %d (first lsn %d, %d rotations, %d pruned), spill: %d hits %d misses\n",
			st.WAL.Segments, st.WAL.FirstLSN, st.WAL.Rotations, st.WAL.Pruned,
			st.SpillHits, st.SpillMisses)
		c.printf("logged commits: %d, %d fsyncs\n", st.GroupCommit.Commits, st.GroupCommit.Syncs)
	}
	for _, rel := range st.Relations {
		c.printf("  %s: %6d rows %8d bytes\n", rel.Name, rel.Tuples, rel.Bytes)
	}
	if p := c.nw.Peer(args[0]); p != nil {
		if tot := p.ExportTotals(); tot.Sessions > 0 {
			c.printf("exports (cumulative, %d sessions): %d full, %d incremental, %d fallback\n",
				tot.Sessions, tot.ExportsFull, tot.ExportsIncremental, tot.ExportsFallback)
			c.printf("  skipped by watermark: %d, incremental batches: %d\n",
				tot.SkippedByWatermark, tot.IncrementalMsgs)
		}
	}
}

func (c *Console) runLinks(args []string) {
	if len(args) != 1 {
		c.printf("usage: links <node>\n")
		return
	}
	st, ok := c.nw.PeerPropagationStats(args[0])
	if !ok {
		c.printf("unknown peer %s\n", args[0])
		return
	}
	if len(st.Links) == 0 {
		c.printf("no links with policies or propagation traffic\n")
		return
	}
	for _, l := range st.Links {
		c.printf("  %-8s policy=%s effective=%s", l.RuleID, l.Policy, l.Effective)
		if l.Filter != "" {
			c.printf(" filter=%q", l.Filter)
		}
		c.printf("\n")
		c.printf("           pushed=%dB pulled=%dB suppressed=%d(%dB) hints=%d/%d pulls=%d/%d tuples=%d\n",
			l.BytesPushed, l.BytesPulled, l.SuppressedBindings, l.BytesSuppressed,
			l.HintsSent, l.HintsReceived, l.PullsServed, l.PullsIssued, l.PulledTuples)
	}
	if len(st.StaleLinks) > 0 {
		c.printf("stale: %v\n", st.StaleLinks)
	}
	if st.StalenessSamples > 0 {
		c.printf("staleness at pull: p50=%v p99=%v over %d pulls\n",
			st.StalenessP50.Round(time.Microsecond), st.StalenessP99.Round(time.Microsecond), st.StalenessSamples)
	}
}

func (c *Console) runMembership(args []string) {
	if len(args) != 1 {
		c.printf("usage: membership <node>\n")
		return
	}
	st, ok := c.nw.PeerMembershipStats(args[0])
	if !ok {
		c.printf("unknown peer %s\n", args[0])
		return
	}
	c.printf("directory: %d live peers, %d tombstones\n", st.LivePeers, st.Tombstones)
	if !st.Enabled {
		c.printf("failure detection: off\n")
		return
	}
	c.printf("failure detection: %d suspected, %d down, %d healed (cumulative)\n",
		st.Suspects, st.Downs, st.Heals)
	names := make([]string, 0, len(st.States))
	for name := range st.States {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.printf("  %-10s %s\n", name, st.States[name])
	}
}

func (c *Console) runPolicy(args []string) {
	if len(args) < 2 || len(args) > 3 {
		c.printf("usage: policy <rule> <push|pull|adaptive|filter> [filter]\n")
		return
	}
	filter := ""
	if len(args) == 3 {
		filter = args[2]
	}
	if err := c.nw.SetLinkPolicy(args[0], args[1], filter); err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("ok\n")
}

func (c *Console) runCatchUp() {
	ctx, cancel := c.ctx()
	defer cancel()
	start := time.Now()
	n, err := c.nw.CatchUp(ctx)
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("caught up: %d tuples materialised at the pulling peers in %v\n", n, time.Since(start).Round(time.Microsecond))
}

func (c *Console) runStats() {
	sp, err := c.nw.SuperPeer()
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	byNode, _ := sp.CollectStats(ctx, len(c.nw.Peers()))
	c.printf("%s", superpeer.Render(superpeer.AggregateSessions(byNode)))
}

func (c *Console) runReload(args []string) {
	if len(args) != 1 {
		c.printf("usage: reload <config-file>\n")
		return
	}
	text, err := c.ReadFile(args[0])
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	cfg, err := codb.ParseConfig(string(text))
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	sp, err := c.nw.SuperPeer()
	if err != nil {
		c.printf("error: %v\n", err)
		return
	}
	sp.SetConfig(cfg)
	if err := sp.Broadcast(); err != nil {
		c.printf("error: %v\n", err)
		return
	}
	c.printf("broadcast sent; topology will adapt as peers process it\n")
}

func (c *Console) runTopology() {
	for _, name := range c.nw.Peers() {
		p := c.nw.Peer(name)
		out, in := p.Links()
		c.printf("  %-10s outgoing=%v incoming=%v\n", name, out, in)
	}
}
