package peer

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// stateModel is the test's own account of what a log should load to.
type stateModel map[string]core.ExportSnapshot

func (m stateModel) apply(d core.ExportDelta) {
	if d.Reset {
		delete(m, d.RuleID)
	}
	if d.RuleText != "" {
		snap := m[d.RuleID]
		snap.RuleText, snap.Watermark = d.RuleText, d.Watermark
		snap.Shipped = append(append([]string(nil), snap.Shipped...), d.Shipped...)
		m[d.RuleID] = snap
	}
}

func sameState(t *testing.T, what string, got map[string]core.ExportSnapshot, want stateModel) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: loaded %d rules, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		gs, ws := append([]string(nil), g.Shipped...), append([]string(nil), w.Shipped...)
		sort.Strings(gs)
		sort.Strings(ws)
		if g.RuleText != w.RuleText || g.Watermark != w.Watermark || strings.Join(gs, "|") != strings.Join(ws, "|") {
			t.Fatalf("%s: rule %s loaded as text %q watermark %d with %d keys, want %q, %d, %d keys",
				what, id, g.RuleText, g.Watermark, len(g.Shipped), w.RuleText, w.Watermark, len(w.Shipped))
		}
	}
}

// keys returns n distinct binding keys, binary like the real ones.
func keys(from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = relation.Tuple{relation.Int(from + i), relation.Str("x\x00y")}.Key()
	}
	return out
}

func delta(id string, reset bool, text string, wm uint64, shipped []string) core.ExportDelta {
	return core.ExportDelta{RuleID: id, Reset: reset,
		ExportSnapshot: core.ExportSnapshot{RuleText: text, Watermark: wm, Shipped: shipped}}
}

func mustAppend(t *testing.T, l *exportLog, m stateModel, deltas ...core.ExportDelta) bool {
	t.Helper()
	compact, err := l.append(deltas)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		m.apply(d)
	}
	return compact
}

// TestExportLogTornTail: a crash mid-append loses that record and nothing
// else — the log loads without error to the state of the last whole record,
// and keeps taking appends.
func TestExportLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), exportStateName)
	l, err := createExportLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := stateModel{}
	mustAppend(t, l, want, delta("r1", true, "A.r(x) <- B.r(x)", 7, keys(0, 64)), delta("r2", true, "A.q(x) <- B.q(x)", 7, keys(100, 3)))
	mustAppend(t, l, want, delta("r1", false, "A.r(x) <- B.r(x)", 9, keys(64, 64)))
	whole := l.log.Size()
	torn := stateModel{}
	mustAppend(t, l, torn, delta("r1", false, "A.r(x) <- B.r(x)", 11, keys(128, 64)))
	l.close()

	for _, cut := range []int64{1, 5, 300} {
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cutPath := path + fmt.Sprint(cut)
		if err := os.WriteFile(cutPath, full[:int64(len(full))-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, state, err := openExportLog(cutPath)
		if err != nil {
			t.Fatalf("torn by %d bytes: %v", cut, err)
		}
		sameState(t, fmt.Sprintf("torn by %d bytes", cut), state, want)
		if l2.log.Size() != whole {
			t.Fatalf("torn by %d bytes: log continues at %d, want %d (the torn record cut off)", cut, l2.log.Size(), whole)
		}
		after := stateModel{}
		for id, snap := range want {
			after[id] = snap
		}
		mustAppend(t, l2, after, delta("r2", false, "A.q(x) <- B.q(x)", 12, keys(103, 2)))
		l2.close()
		l3, state, err := openExportLog(cutPath)
		if err != nil {
			t.Fatal(err)
		}
		l3.close()
		sameState(t, "append after a torn tail", state, after)
	}
}

// legacyGobState is the file earlier versions wrote: one gob value holding
// the whole state.
func legacyGobState(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Version int
		Rules   map[string]core.ExportSnapshot
	}{1, map[string]core.ExportSnapshot{"r1": {RuleText: "A.r(x) <- B.r(x)", Watermark: 3, Shipped: keys(0, 5)}}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportLogDamagedFileIsRefused: a record corrupted in the middle of the
// file, a record of an unknown format, or a whole file in the legacy gob
// format is an error from openExportLog, not a partial state.
func TestExportLogDamagedFileIsRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, exportStateName)
	l, err := createExportLog(path)
	if err != nil {
		t.Fatal(err)
	}
	m := stateModel{}
	mustAppend(t, l, m, delta("r1", true, "A.r(x) <- B.r(x)", 7, keys(0, 64)))
	mid := l.log.Size()
	mustAppend(t, l, m, delta("r1", false, "A.r(x) <- B.r(x)", 9, keys(64, 64)))
	mustAppend(t, l, m, delta("r1", false, "A.r(x) <- B.r(x)", 11, keys(128, 64)))
	l.close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), good...)
	corrupt[mid+40] ^= 0xFF // inside the second of three records
	files := map[string]string{
		"corrupt middle record": filepath.Join(dir, "corrupt"),
		"legacy gob file":       filepath.Join(dir, "gob"),
		"unknown record format": filepath.Join(dir, "unknown"),
	}
	if err := os.WriteFile(files["corrupt middle record"], corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files["legacy gob file"], legacyGobState(t), 0o644); err != nil {
		t.Fatal(err)
	}
	future, err := createExportLog(files["unknown record format"])
	if err != nil {
		t.Fatal(err)
	}
	if err := future.log.Append([]byte{exportRecordV1 + 1, 0}); err != nil {
		t.Fatal(err)
	}
	future.close()
	for name, path := range files {
		if l, state, err := openExportLog(path); err == nil {
			l.close()
			t.Errorf("%s: loaded without error (%d rules)", name, len(state))
		}
	}
}

// TestExportLogCompaction: resets and repeated headers make the file outgrow
// the state; append then asks for compaction, and the compacted file is
// smaller, loads to the same state, and keeps taking appends.
func TestExportLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), exportStateName)
	l, err := createExportLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := stateModel{}
	const text = "A.r(x) <- B.r(x)"
	asked := false
	for round := 0; round < 40 && !asked; round++ {
		// Each round voids the link's state and ships 2,000 keys again.
		asked = mustAppend(t, l, want, delta("r1", true, text, uint64(round), keys(0, 2000)))
		mustAppend(t, l, want, delta("r2", round == 0, "A.q(x) <- B.q(x)", uint64(round), keys(round*10, 10)))
	}
	if !asked {
		t.Fatalf("40 resets of a 2,000-key link never asked for compaction (file %d B, live %d B)", l.log.Size(), l.liveBytes)
	}
	before := l.log.Size()
	if err := l.compact(want); err != nil {
		t.Fatal(err)
	}
	if after := l.log.Size(); after >= before/2 {
		t.Fatalf("compaction took the file from %d to %d B; want less than half", before, after)
	}
	if l.log.Size() > 2*l.liveBytes+compactSlack {
		t.Fatalf("a freshly compacted %d B file counts %d live bytes: it would compact again at once", l.log.Size(), l.liveBytes)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temporary file behind (%v)", err)
	}
	mustAppend(t, l, want, delta("r1", false, text, 99, keys(5000, 64)))
	l.close()
	l, state, err := openExportLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.close()
	sameState(t, "compacted log", state, want)
}

// TestExportLogAppendIsProportionalToTheSession: a session that fingerprints
// 64 new bindings appends the same few bytes per key whether the link has
// shipped 1k or 100k bindings before. (Rewriting the state per session, as
// the gob file did, wrote 100x the bytes at 100x the history.)
func TestExportLogAppendIsProportionalToTheSession(t *testing.T) {
	appended := func(history int) int64 {
		l, err := createExportLog(filepath.Join(t.TempDir(), exportStateName))
		if err != nil {
			t.Fatal(err)
		}
		defer l.close()
		m := stateModel{}
		const text = "A.r(x) <- B.r(x)"
		mustAppend(t, l, m, delta("r1", true, text, 1, keys(0, history)))
		before := l.log.Size()
		if mustAppend(t, l, m, delta("r1", false, text, 2, keys(history, 64))) {
			t.Fatalf("a plain increment over %d keys asks for compaction", history)
		}
		return l.log.Size() - before
	}
	small, large := appended(1000), appended(100000)
	t.Logf("one 64-binding session appends %d B after 1k bindings, %d B after 100k", small, large)
	if small != large {
		t.Fatalf("the record grows with the link's history: %d B after 1k bindings, %d B after 100k", small, large)
	}
	if perKey := large / 64; perKey > 64 {
		t.Fatalf("%d B per fingerprinted binding; want the key plus a few bytes of framing", perKey)
	}
}

// logSink collects slog records for assertions.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// durablePair is exporter B -> importer A over the bus, both on disk.
type durablePair struct {
	t          *testing.T
	dirA, dirB string
	a, b       *Peer
	dbs        []*storage.DB
	logs       *logSink
}

func (d *durablePair) start(ruleText string) {
	d.t.Helper()
	d.t.Cleanup(d.stop)
	bus := transport.NewBus()
	d.logs = &logSink{}
	open := func(name, dir string) *Peer {
		db, err := storage.Open(storage.Options{Dir: dir})
		if err != nil {
			d.t.Fatal(err)
		}
		d.dbs = append(d.dbs, db)
		if db.Rel("r") == nil {
			if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{{Name: "x", Type: relation.TInt}}}); err != nil {
				d.t.Fatal(err)
			}
		}
		p, err := New(Options{Name: name, Transport: bus.MustJoin(name), Wrapper: core.NewStoreWrapper(db),
			Logger: slog.New(slog.NewTextHandler(d.logs, nil))})
		if err != nil {
			d.t.Fatal(err)
		}
		if err := p.AddRule("r1", ruleText); err != nil {
			d.t.Fatal(err)
		}
		return p
	}
	d.a, d.b = open("A", d.dirA), open("B", d.dirB)
}

// stop is idempotent: tests stop a pair to restart it, and the cleanup stops
// whatever incarnation is left.
func (d *durablePair) stop() {
	d.a.Stop()
	d.b.Stop()
	for _, db := range d.dbs {
		db.Close()
	}
	d.dbs = nil
}

// update inserts rows at the exporter, runs an update from the importer and
// returns the exporter's report of the session.
func (d *durablePair) update(rows ...int) msg.UpdateReport {
	d.t.Helper()
	for _, v := range rows {
		if err := d.b.Insert("r", ints(v)); err != nil {
			d.t.Fatal(err)
		}
	}
	rep, err := d.a.RunUpdate(ctxT(d.t))
	if err != nil {
		d.t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, r := range d.b.Reports() {
			if r.SID == rep.SID {
				return r
			}
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("exporter has no report for session %s", rep.SID)
		}
		time.Sleep(time.Millisecond)
	}
}

const pairRule = `A.r(x) <- B.r(x)`

// TestDamagedExportStateDegradesToOneFullExport: with a corrupt record in
// the middle of the file, or a file in the legacy gob format, the peer comes
// up all the same, says so in its log, re-exports in full once — and is
// keeping state again by the session after.
func TestDamagedExportStateDegradesToOneFullExport(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"corrupt middle record": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The compacted file is one record; a second makes it the middle.
			l, _, err := openExportLog(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.append([]core.ExportDelta{delta("r1", false, pairRule, 1, nil)}); err != nil {
				t.Fatal(err)
			}
			l.close()
			extended, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			extended[len(data)-3] ^= 0xFF
			if err := os.WriteFile(path, extended, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"legacy gob file": func(t *testing.T, path string) {
			if err := os.WriteFile(path, legacyGobState(t), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range damage {
		t.Run(name, func(t *testing.T) {
			d := &durablePair{t: t, dirA: t.TempDir(), dirB: t.TempDir()}
			d.start(pairRule)
			if rep := d.update(1, 2, 3); rep.ExportsFull != 1 {
				t.Fatalf("first session: %d full exports, want 1", rep.ExportsFull)
			}
			d.stop()
			breakIt(t, filepath.Join(d.dirB, exportStateName))

			d.start(pairRule)
			defer d.stop()
			if !strings.Contains(d.logs.String(), "export state unreadable") {
				t.Errorf("no warning about the damaged file in the log:\n%s", d.logs.String())
			}
			if wm := d.b.ExportWatermarks(); len(wm) != 0 {
				t.Fatalf("state restored from a damaged file: %v", wm)
			}
			rep := d.update(4)
			if rep.ExportsFull != 1 || rep.ExportsIncremental != 0 {
				t.Fatalf("session over the damaged file: full=%d incr=%d, want one full export", rep.ExportsFull, rep.ExportsIncremental)
			}
			if got := d.a.Count("r"); got != 4 {
				t.Fatalf("importer holds %d tuples, want 4", got)
			}
			if rep := d.update(5); rep.ExportsIncremental != 1 || rep.ExportsFull != 0 {
				t.Fatalf("next session: full=%d incr=%d, want incremental again", rep.ExportsFull, rep.ExportsIncremental)
			}
		})
	}
}

// TestExportStateResetsSurviveReload: a reset is a record like any other. A
// peer that forgot its state toward an importer, or had its rule redefined,
// must not find the old watermark and fingerprints again after a restart —
// they would suppress tuples the importer no longer has.
func TestExportStateResetsSurviveReload(t *testing.T) {
	t.Run("ResetExportStateToward", func(t *testing.T) {
		d := &durablePair{t: t, dirA: t.TempDir(), dirB: t.TempDir()}
		d.start(pairRule)
		d.update(1, 2, 3)
		d.update(4)
		d.b.ResetExportStateToward("A")
		// Crash, not Stop: what is on disk is the appended reset record, not
		// a compaction of the state in memory.
		crashed := snapshotFile(t, filepath.Join(d.dirB, exportStateName))
		d.stop()
		restoreFile(t, filepath.Join(d.dirB, exportStateName), crashed)

		d.start(pairRule)
		defer d.stop()
		if wm := d.b.ExportWatermarks(); len(wm) != 0 {
			t.Fatalf("watermarks %v came back after a reset", wm)
		}
		if rep := d.update(); rep.ExportsFull != 1 {
			t.Fatalf("session after the reset: full=%d incr=%d, want a full export", rep.ExportsFull, rep.ExportsIncremental)
		}
	})
	t.Run("redefined rule", func(t *testing.T) {
		d := &durablePair{t: t, dirA: t.TempDir(), dirB: t.TempDir()}
		d.start(pairRule)
		d.update(1, 2, 3)
		const narrower = `A.r(x) <- B.r(x), x > 1`
		for _, p := range []*Peer{d.a, d.b} {
			if err := p.AddRule("r1", narrower); err != nil {
				t.Fatal(err)
			}
		}
		// A materialising session persists the redefinition's reset along
		// with the new rule's first export.
		if rep := d.update(); rep.ExportsFull != 1 {
			t.Fatalf("first session over the redefined rule: full=%d, want 1", rep.ExportsFull)
		}
		crashed := snapshotFile(t, filepath.Join(d.dirB, exportStateName))
		d.stop()
		restoreFile(t, filepath.Join(d.dirB, exportStateName), crashed)

		l, state, err := openExportLog(filepath.Join(d.dirB, exportStateName))
		if err != nil {
			t.Fatal(err)
		}
		l.close()
		if snap := state["r1"]; snap.RuleText != narrower || len(snap.Shipped) != 2 {
			t.Fatalf("reloaded state for r1 = text %q with %d keys, want the redefined rule's 2", snap.RuleText, len(snap.Shipped))
		}
	})
}

// snapshotFile reads the state file as a crash would leave it. Every caller
// has just had an answer from the exporter's actor loop (its report of the
// session, or the reset itself), and the loop persists within the item that
// finishes a session: the file is up to date.
func snapshotFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func restoreFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
