package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"codb/internal/relation"
)

// diffPin is a snapshot with the model of the state it was pinned at.
type diffPin struct {
	snap  *Snapshot
	model relation.Instance
	lsn   uint64
}

// Positions of the differential relation r(k, adopted, cold): position 1
// is probed on snapshots while they are current, so the table adopts the
// index a probe builds; position 2 is probed only on snapshots the database
// has moved on from, so every first probe of it builds from the snapshot's
// own state.
const (
	posKey, posAdopted, posCold = 0, 1, 2
)

// check compares every read of the pin with its model. current tells whether
// the database is still at the pinned LSN.
func (p *diffPin) check(t *testing.T, r *rand.Rand, current bool) {
	t.Helper()
	want := p.model.Tuples("r")
	sameRows := func(what string, got []relation.Tuple, want []relation.Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("lsn %d: %s yields %d tuples, model %d", p.lsn, what, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("lsn %d: %s tuple %d is %v, model %v", p.lsn, what, i, got[i], want[i])
			}
		}
	}
	if p.snap.LSN() != p.lsn {
		t.Fatalf("snapshot LSN %d, pinned at %d", p.snap.LSN(), p.lsn)
	}
	if got := p.snap.Count("r"); got != len(want) {
		t.Fatalf("lsn %d: Count = %d, model %d", p.lsn, got, len(want))
	}
	sameRows("Tuples", p.snap.Tuples("r"), want)
	var scanned []relation.Tuple
	p.snap.Scan("r", func(row relation.Tuple) bool { scanned = append(scanned, row); return true })
	sameRows("Scan", scanned, want)

	for i := 0; i < 20; i++ {
		probe := diffRow(r)
		if len(want) > 0 && i%2 == 0 {
			probe = want[r.Intn(len(want))]
		}
		if got, model := p.snap.HasKey("r", probe.Key()), p.model.Has("r", probe); got != model {
			t.Fatalf("lsn %d: HasKey(%v) = %v, model %v", p.lsn, probe, got, model)
		}
		if got, model := p.snap.Has("r", probe), p.model.Has("r", probe); got != model {
			t.Fatalf("lsn %d: Has(%v) = %v, model %v", p.lsn, probe, got, model)
		}
	}

	positions := []int{posKey, posAdopted}
	if !current {
		positions = append(positions, posCold)
	}
	for _, pos := range positions {
		for i := 0; i < 4; i++ {
			v := diffRow(r)[pos]
			var model []relation.Tuple
			for _, row := range want {
				if row[pos] == v {
					model = append(model, row)
				}
			}
			var got []relation.Tuple
			p.snap.ScanEq("r", pos, v, func(row relation.Tuple) bool { got = append(got, row); return true })
			sameRows(fmt.Sprintf("ScanEq(pos %d = %v)", pos, v), got, model)
			// An early stop stops.
			if len(model) > 1 {
				n := 0
				p.snap.ScanEq("r", pos, v, func(relation.Tuple) bool { n++; return false })
				if n != 1 {
					t.Fatalf("lsn %d: ScanEq kept going after fn returned false (%d calls)", p.lsn, n)
				}
			}
		}
	}
}

// diffRow draws a row from a space small enough that re-inserts, deletes of
// present rows and equal attribute values all happen.
func diffRow(r *rand.Rand) relation.Tuple {
	k := r.Intn(400)
	return relation.Tuple{relation.Int(k), relation.Int(r.Intn(5)), relation.Int(k % 11)}
}

// TestSnapshotDifferential drives random inserts, deletes and re-inserts,
// pins snapshots at random LSNs, and compares each with a relation.Instance
// model of that LSN — Scan, HasKey, Count, Tuples, and ScanEq over the
// primary position, a position whose probe-built index the table adopts and
// maintains, and a position only ever probed on outdated snapshots — when
// pinned and again after later commits, which must not show through. The
// shards= field of the subtest names is left from a retired storage layout;
// it keeps the names test histories know and, with seed=, picks the random
// trace.
func TestSnapshotDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * int64(shards)))
				db := MustOpenMem()
				defer db.Close()
				if err := db.DefineRelation(&relation.RelDef{Name: "r", Attrs: []relation.Attr{
					{Name: "k", Type: relation.TInt}, {Name: "adopted", Type: relation.TInt},
					{Name: "cold", Type: relation.TInt},
				}}); err != nil {
					t.Fatal(err)
				}
				model := relation.NewInstance()
				var pins []*diffPin
				for step := 0; step < 1000; step++ {
					switch p := r.Intn(100); {
					case p < 55:
						batch := make([]relation.Tuple, 1+r.Intn(8))
						for i := range batch {
							batch[i] = diffRow(r)
						}
						fresh, err := db.InsertMany("r", batch)
						if err != nil {
							t.Fatal(err)
						}
						n := 0
						for _, row := range batch {
							if model.Insert("r", row) {
								n++
							}
						}
						if len(fresh) != n {
							t.Fatalf("InsertMany reports %d new tuples, model %d", len(fresh), n)
						}
					case p < 85:
						row := diffRow(r)
						if rows := model.Tuples("r"); len(rows) > 0 && r.Intn(4) > 0 {
							row = rows[r.Intn(len(rows))]
						}
						existed, err := db.Delete("r", row)
						if err != nil {
							t.Fatal(err)
						}
						if existed != model.Has("r", row) {
							t.Fatalf("Delete(%v) = %v, model %v", row, existed, model.Has("r", row))
						}
						delete(model["r"], row.Key())
					case p < 93:
						pin := &diffPin{snap: db.Snapshot(), model: model.Clone(), lsn: db.LSN()}
						pin.check(t, r, true)
						pins = append(pins, pin)
					default:
						if len(pins) > 0 {
							i := r.Intn(len(pins))
							pins[i].check(t, r, pins[i].lsn == db.LSN())
							if len(pins) > 12 {
								pins = append(pins[:i], pins[i+1:]...)
							}
						}
					}
				}
				for _, pin := range pins {
					pin.check(t, r, pin.lsn == db.LSN())
				}
				// The probes did get adopted: the live table now maintains
				// the adopted position. Every commit outdates every view, so
				// the cold position was never taken.
				tb := db.tables["r"]
				if idx := tb.second[posAdopted]; idx == nil {
					t.Error("the table never adopted the probed index")
				} else if idx.Len() != tb.primary.Len() {
					t.Errorf("adopted index holds %d entries, primary %d", idx.Len(), tb.primary.Len())
				}
				if tb.second[posCold] != nil {
					t.Error("the table adopted an index built on an outdated snapshot")
				}
			})
		}
	}
}
