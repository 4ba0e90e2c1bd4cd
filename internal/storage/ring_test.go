package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"codb/internal/relation"
)

// ringModel is the naive changelog the ring replaced: a slice appended to
// and trimmed from the front, with the same two floors. all keeps every
// captured insert ever, which is what the spill path serves.
type ringModel struct {
	limit                   int
	changes, all            []modelChange
	lostBelow, evictedBelow uint64
	present                 map[string]bool
	lsn                     uint64
}

type modelChange struct {
	lsn uint64
	key string
}

// apply replays one commit's rows (a nil Tuple deletes), in order,
// following applied[i]. It returns the first row whose applied flag
// disagrees with the model's presence set, or -1.
func (m *ringModel) apply(lsn uint64, ops []relation.Row, applied []bool) int {
	m.lsn = lsn
	for i, o := range ops {
		if applied[i] != (m.present[o.Key] == (o.Tuple == nil)) {
			return i
		}
		switch {
		case !applied[i]:
		case o.Tuple != nil:
			m.present[o.Key] = true
			c := modelChange{lsn: lsn, key: o.Key}
			m.all = append(m.all, c)
			m.changes = append(m.changes, c)
			if drop := len(m.changes) - m.limit; drop > 0 {
				m.evictedBelow = max(m.evictedBelow, m.changes[drop-1].lsn)
				m.changes = m.changes[drop:]
			}
		default:
			delete(m.present, o.Key)
			m.lostBelow = max(m.lostBelow, lsn)
			m.changes = nil
		}
	}
	return -1
}

// delta is what Changes(rel, w) must return. spill reports that the
// answer has to come from retained WAL segments.
func (m *ringModel) delta(w uint64, durable bool) (keys []string, ok, spill bool) {
	src := m.changes
	switch {
	case w >= m.lostBelow && w >= m.evictedBelow:
	case w < m.lostBelow || !durable:
		return nil, false, false
	default:
		src, spill = m.all, true
	}
	for _, c := range src {
		if c.lsn > w {
			keys = append(keys, c.key)
		}
	}
	return keys, true, spill
}

// checkRing compares the relation's ring and floors with the model's; when
// not full, only the oldest and newest ring entries are compared.
func checkRing(t *testing.T, db *DB, m *ringModel, full bool) {
	t.Helper()
	tb := db.tables["emp"]
	if tb.lostBelow != m.lostBelow || tb.evictedBelow != m.evictedBelow {
		t.Fatalf("lsn %d: floors lost=%d evicted=%d, model lost=%d evicted=%d",
			m.lsn, tb.lostBelow, tb.evictedBelow, m.lostBelow, m.evictedBelow)
	}
	if tb.changes.n != len(m.changes) {
		t.Fatalf("lsn %d: ring holds %d entries, model %d", m.lsn, tb.changes.n, len(m.changes))
	}
	if len(tb.changes.buf) > m.limit {
		t.Fatalf("lsn %d: ring capacity %d exceeds limit %d", m.lsn, len(tb.changes.buf), m.limit)
	}
	step := 1
	if !full {
		step = max(1, len(m.changes)-1)
	}
	for j := 0; j < len(m.changes); j += step {
		mc := m.changes[j]
		if c := tb.changes.at(j); c.lsn != mc.lsn || c.tuple.Key() != mc.key {
			t.Fatalf("lsn %d entry %d: ring (%d, %q), model (%d, %q)",
				m.lsn, j, c.lsn, c.tuple.Key(), mc.lsn, mc.key)
		}
	}
}

// checkChanges compares Changes at one watermark with the model: the same
// tuples in the same order, the same ok, the same spill decision.
func checkChanges(t *testing.T, db *DB, m *ringModel, w uint64) {
	t.Helper()
	durable := db.log != nil
	want, wantOK, wantSpill := m.delta(w, durable)
	before := db.spillHits.Load() + db.spillMisses.Load()
	got, ok := db.Changes("emp", w)
	spilled := db.spillHits.Load()+db.spillMisses.Load() != before
	if ok != wantOK || spilled != wantSpill {
		t.Fatalf("lsn %d: Changes(%d) ok=%v spilled=%v, model ok=%v spill=%v", m.lsn, w, ok, spilled, wantOK, wantSpill)
	}
	if len(got) != len(want) {
		t.Fatalf("lsn %d: Changes(%d) returned %d tuples, model %d", m.lsn, w, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i] {
			t.Fatalf("lsn %d: Changes(%d)[%d] = %q, model %q", m.lsn, w, i, got[i].Key(), want[i])
		}
	}
}

// TestChangeRingAgainstModel drives random multi-op commits — inserts,
// duplicates, deletes that reset the ring, enough rows to wrap it several
// times — through the engine and the naive slice model, and requires
// identical rings, floors and Changes answers at every watermark. The
// shards= field of the subtest names is left from a retired storage layout;
// it keeps the names test histories know.
func TestChangeRingAgainstModel(t *testing.T) {
	cases := []struct {
		limit, shards, commits int
		deleteOneIn            int // per op
		durable                bool
	}{
		{limit: 1, shards: 1, commits: 150, deleteOneIn: 25},
		{limit: 2, shards: 3, commits: 200, deleteOneIn: 40},
		{limit: 6, shards: 1, commits: 300, deleteOneIn: 60},
		{limit: 6, shards: 4, commits: 300, deleteOneIn: 60},
		{limit: 6, shards: 3, commits: 250, deleteOneIn: 400, durable: true},
		{limit: 0, shards: 1, commits: 3200, deleteOneIn: 6000}, // DefaultChangelogLimit
		{limit: 4096, shards: 2, commits: 5000, deleteOneIn: 12000},
	}
	for ci, tc := range cases {
		name := fmt.Sprintf("limit=%d/shards=%d/durable=%v", tc.limit, tc.shards, tc.durable)
		t.Run(name, func(t *testing.T) {
			opts := Options{ChangelogLimit: tc.limit}
			if tc.durable {
				opts.Dir = t.TempDir()
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.DefineRelation(empDef()); err != nil {
				t.Fatal(err)
			}
			m := &ringModel{limit: db.changelogLimit(), present: map[string]bool{}}
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			domain := tc.commits * 4
			every := tc.limit > 0 && tc.limit <= 6 // small runs: all watermarks after every commit
			for c := 0; c < tc.commits; c++ {
				ops := make([]relation.Row, 1+rng.Intn(5))
				for i := range ops {
					tuple := emp(rng.Intn(domain), "x")
					if rng.Intn(tc.deleteOneIn) == 0 {
						ops[i] = relation.Row{Rel: "emp", Key: tuple.Key()}
					} else {
						ops[i] = relation.Row{Rel: "emp", Key: tuple.Key(), Tuple: tuple}
					}
				}
				applied := make([]bool, len(ops))
				if err := db.commit(ops, applied); err != nil {
					t.Fatal(err)
				}
				if i := m.apply(db.LSN(), ops, applied); i >= 0 {
					t.Fatalf("commit %d: op %d (delete %v) applied=%v, model disagrees", c, i, ops[i].Tuple == nil, applied[i])
				}
				if !slices.Contains(applied, true) {
					continue // nothing changed: no commit, no LSN
				}
				full := every || c%100 == 0 || c == tc.commits-1
				checkRing(t, db, m, full)
				if every || c == tc.commits-1 {
					// Large rings answer a mid-history watermark with
					// thousands of tuples: sweep those with a stride, the
					// floors' neighbourhood and the recent past densely.
					evicted := m.evictedBelow
					for w := uint64(0); w <= m.lsn; w++ {
						if every || w%41 == 0 || w+128 > m.lsn || (w+2 >= evicted && w <= evicted+2) {
							checkChanges(t, db, m, w)
						}
					}
					continue
				}
				// Large rings: the recent watermarks a live exporter asks
				// for after every commit, the floors and a random one now
				// and then, every watermark at the end.
				marks := []uint64{m.lsn, m.lsn - 1, m.lsn - uint64(rng.Int63n(int64(min(m.lsn, 64))))}
				if c%250 == 0 {
					marks = append(marks, m.lostBelow, m.evictedBelow, max(m.evictedBelow, 1)-1, uint64(rng.Int63n(int64(m.lsn))))
				}
				for _, w := range marks {
					checkChanges(t, db, m, w)
				}
			}
			if m.evictedBelow == 0 {
				t.Fatal("no ring ever wrapped: the case does not test eviction")
			}
		})
	}
}

// TestReplayRebuildsSameRing commits more than ChangelogLimit inserts (with
// a delete among them), kills the database without a checkpoint, and
// requires WAL replay to leave the ring and floors exactly as the live
// commits did.
func TestReplayRebuildsSameRing(t *testing.T) {
	type dump struct {
		entries                 []modelChange
		lostBelow, evictedBelow uint64
	}
	dumpRing := func(db *DB) dump {
		tb := db.tables["emp"]
		d := dump{lostBelow: tb.lostBelow, evictedBelow: tb.evictedBelow}
		for i := 0; i < tb.changes.n; i++ {
			c := tb.changes.at(i)
			d.entries = append(d.entries, modelChange{lsn: c.lsn, key: c.tuple.Key()})
		}
		return d
	}
	dir := t.TempDir()
	opts := Options{ChangelogLimit: 6}
	db := openDurable(t, dir, opts)
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i += 4 {
		batch := []relation.Tuple{emp(i, "x"), emp(i+1, "x"), emp(i+2, "x"), emp(i+3, "x")}
		if _, err := db.InsertMany("emp", batch); err != nil {
			t.Fatal(err)
		}
		if i == 8 {
			if _, err := db.Delete("emp", emp(1, "x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	live, lsn := dumpRing(db), db.LSN()
	db.crash()

	re := openDurable(t, dir, opts)
	defer re.Close()
	if re.LSN() != lsn {
		t.Fatalf("replayed LSN = %d, live %d", re.LSN(), lsn)
	}
	if live.evictedBelow == 0 {
		t.Fatal("the ring never evicted: the test does not cover wrap-around")
	}
	if replayed := dumpRing(re); fmt.Sprint(live) != fmt.Sprint(replayed) {
		t.Errorf("live ring %v, replayed %v", live, replayed)
	}
}

// TestCaptureAllocationAtLimit guards the O(1) eviction: with the ring
// already full, 4,096 further rows may allocate less than 1 KiB per row
// more than the same inserts with change capture disabled (a ring that
// copies itself to evict allocates 160 KB per row).
func TestCaptureAllocationAtLimit(t *testing.T) {
	const rows = DefaultChangelogLimit
	perRow := func(limit int) uint64 {
		db, err := Open(Options{ChangelogLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRelation(empDef()); err != nil {
			t.Fatal(err)
		}
		insert := func(from int) {
			for i := from; i < from+rows; i++ {
				if _, err := db.Insert("emp", emp(i, "x")); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(0)
		insert(rows) // the ring is full and has wrapped
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		insert(2 * rows)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rows
	}
	with, without := perRow(0), perRow(-1)
	t.Logf("allocated per inserted row: %d B with capture at its limit, %d B with capture off", with, without)
	if with > without+1024 {
		t.Fatalf("change capture allocates %d B per row at the limit (insert alone %d B); want < 1 KiB", with-without, without)
	}
}

// TestCommitReservesRingOnce: a 1,000-row commit into an empty table grows
// its changelog once, to the commit's size, where pushing the rows one by
// one doubled it from 8 entries eight times.
func TestCommitReservesRingOnce(t *testing.T) {
	const rows = 1000
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = emp(i, "x")
	}
	commit := func(limit int) func() {
		return func() {
			db, err := Open(Options{ChangelogLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DefineRelation(empDef()); err != nil {
				t.Fatal(err)
			}
			if _, err := db.InsertMany("emp", tuples); err != nil {
				t.Fatal(err)
			}
			if limit > 0 && len(db.tables["emp"].changes.buf) != rows {
				t.Fatalf("ring capacity %d after a %d-row commit", len(db.tables["emp"].changes.buf), rows)
			}
		}
	}
	with, without := testing.AllocsPerRun(5, commit(0)), testing.AllocsPerRun(5, commit(-1))
	if with-without != 1 {
		t.Fatalf("a %d-row commit makes %.0f allocations with capture, %.0f without: want exactly one more", rows, with, without)
	}

	// A delete inside the commit empties the ring; the inserts after it
	// make room once more, for themselves alone.
	batch := relation.KeyedRows("emp", tuples)
	batch = slices.Insert(batch, rows/2, relation.Row{Rel: "emp", Key: tuples[0].Key()})
	split := func(limit int) func() {
		return func() {
			db, err := Open(Options{ChangelogLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.DefineRelation(empDef()); err != nil {
				t.Fatal(err)
			}
			if err := db.commit(batch, make([]bool, len(batch))); err != nil {
				t.Fatal(err)
			}
			if limit > 0 && len(db.tables["emp"].changes.buf) != rows/2 {
				t.Fatalf("ring capacity %d after a delete and %d inserts", len(db.tables["emp"].changes.buf), rows/2)
			}
		}
	}
	with, without = testing.AllocsPerRun(5, split(0)), testing.AllocsPerRun(5, split(-1))
	if with-without != 2 {
		t.Fatalf("a commit split by a delete makes %.0f allocations with capture, %.0f without: want exactly two more", with, without)
	}
}
