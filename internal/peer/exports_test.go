package peer

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"codb/internal/core"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// durablePair is exporter B -> importer A over the bus, both on disk.
type durablePair struct {
	t          *testing.T
	dirA, dirB string
	a, b       *Peer
	dbs        []*storage.DB
}

func (d *durablePair) start(ruleText string) {
	d.t.Helper()
	d.t.Cleanup(d.stop)
	bus := transport.NewBus()
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
		p, err := New(Options{Name: name, Transport: bus.MustJoin(name), Wrapper: core.NewStoreWrapper(db)})
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

// crashCopy copies the exporter's directory as a kill would leave it: what
// its store has written, with no final checkpoint.
func (d *durablePair) crashCopy() string {
	d.t.Helper()
	dst := d.t.TempDir()
	entries, err := os.ReadDir(d.dirB)
	if err != nil {
		d.t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(d.dirB, e.Name()))
		if err != nil {
			d.t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			d.t.Fatal(err)
		}
	}
	return dst
}

const pairRule = `A.r(x) <- B.r(x)`

// TestExportStateResetsSurviveReload: a reset is logged when it happens. A
// peer that forgot its state toward an importer, or had its rule redefined,
// must not find the old watermark again after a crash — it would keep back
// tuples the importer no longer has — while the redefined rule's own
// watermark is there.
func TestExportStateResetsSurviveReload(t *testing.T) {
	t.Run("ResetExportStateToward", func(t *testing.T) {
		d := &durablePair{t: t, dirA: t.TempDir(), dirB: t.TempDir()}
		d.start(pairRule)
		d.update(1, 2, 3)
		d.update(4)
		d.b.ResetExportStateToward("A")
		crashed := d.crashCopy()
		d.stop()

		d.dirB = crashed
		d.start(pairRule)
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
		if rep := d.update(4); rep.ExportsFull != 1 {
			t.Fatalf("first session over the redefined rule: full=%d, want 1", rep.ExportsFull)
		}
		d.update(5) // its commit carries the first session's watermark
		crashed, crashedAgain := d.crashCopy(), d.crashCopy()
		d.stop()

		d.dirB = crashed
		d.start(narrower)
		if rep := d.update(6); rep.ExportsIncremental != 1 || rep.ExportsFull != 0 {
			t.Fatalf("redefined rule after the crash: full=%d incr=%d, want incremental", rep.ExportsFull, rep.ExportsIncremental)
		}
		d.stop()
		d.dirB = crashedAgain
		d.start(pairRule)
		if wm := d.b.ExportWatermarks(); len(wm) != 0 {
			t.Fatalf("the first definition's watermark %v came back", wm)
		}
	})
}
