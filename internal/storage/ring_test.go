package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"codb/internal/relation"
)

// ringModel is the naive changelog the ring replaced: one slice per shard,
// appended to and trimmed from the front, with the same two floors. all
// keeps every captured insert ever, which is what the spill path serves.
type ringModel struct {
	limit        int
	shards       []modelShard
	all          []modelChange
	present      map[string]bool
	lsn, nextSeq uint64
}

type modelShard struct {
	changes                 []modelChange
	lostBelow, evictedBelow uint64
}

type modelChange struct {
	lsn, seq uint64
	key      string
}

// apply replays one committed transaction's staged ops, in order.
func (m *ringModel) apply(lsn uint64, ops []op) {
	m.lsn = lsn
	for _, o := range ops {
		s := &m.shards[shardIndex(o.key, len(m.shards))]
		switch {
		case o.kind == opInsert && !m.present[o.key]:
			m.present[o.key] = true
			m.nextSeq++
			c := modelChange{lsn: lsn, seq: m.nextSeq, key: o.key}
			m.all = append(m.all, c)
			s.changes = append(s.changes, c)
			if drop := len(s.changes) - m.limit; drop > 0 {
				s.evictedBelow = max(s.evictedBelow, s.changes[drop-1].lsn)
				s.changes = s.changes[drop:]
			}
		case o.kind == opDelete && m.present[o.key]:
			delete(m.present, o.key)
			s.lostBelow = max(s.lostBelow, lsn)
			s.changes = nil
		}
	}
}

// floors returns the relation-wide poison and eviction floors.
func (m *ringModel) floors() (poisoned, evicted uint64) {
	for _, s := range m.shards {
		poisoned = max(poisoned, s.lostBelow)
		evicted = max(evicted, s.evictedBelow)
	}
	return poisoned, evicted
}

// changes is what Changes(rel, w) must return. spill reports that the
// answer has to come from retained WAL segments.
func (m *ringModel) changes(w uint64, durable bool) (keys []string, ok, spill bool) {
	poisoned, evicted := m.floors()
	var delta []modelChange
	collect := func(src []modelChange) {
		for _, c := range src {
			if c.lsn > w {
				delta = append(delta, c)
			}
		}
	}
	switch {
	case w >= poisoned && w >= evicted:
		for _, s := range m.shards {
			collect(s.changes)
		}
		sort.Slice(delta, func(i, j int) bool { return delta[i].seq < delta[j].seq })
	case w < poisoned || !durable:
		return nil, false, false
	default:
		collect(m.all)
		spill = true
	}
	for _, c := range delta {
		keys = append(keys, c.key)
	}
	return keys, true, spill
}

// checkRing compares every shard's ring and floors with the model's; when
// not full, only the oldest and newest ring entries are compared.
func checkRing(t *testing.T, db *DB, m *ringModel, full bool) {
	t.Helper()
	for i, s := range db.tables["emp"].shards {
		ms := m.shards[i]
		if s.lostBelow != ms.lostBelow || s.evictedBelow != ms.evictedBelow {
			t.Fatalf("lsn %d shard %d: floors lost=%d evicted=%d, model lost=%d evicted=%d",
				m.lsn, i, s.lostBelow, s.evictedBelow, ms.lostBelow, ms.evictedBelow)
		}
		if s.changes.n != len(ms.changes) {
			t.Fatalf("lsn %d shard %d: ring holds %d entries, model %d", m.lsn, i, s.changes.n, len(ms.changes))
		}
		if len(s.changes.buf) > m.limit {
			t.Fatalf("lsn %d shard %d: ring capacity %d exceeds limit %d", m.lsn, i, len(s.changes.buf), m.limit)
		}
		step := 1
		if !full {
			step = max(1, len(ms.changes)-1)
		}
		for j := 0; j < len(ms.changes); j += step {
			mc := ms.changes[j]
			if c := s.changes.at(j); c.lsn != mc.lsn || c.tuple.Key() != mc.key {
				t.Fatalf("lsn %d shard %d entry %d: ring (%d, %q), model (%d, %q)",
					m.lsn, i, j, c.lsn, c.tuple.Key(), mc.lsn, mc.key)
			}
		}
	}
}

// checkChanges compares Changes at one watermark with the model: the same
// tuples in the same order, the same ok, the same spill decision.
func checkChanges(t *testing.T, db *DB, m *ringModel, w uint64) {
	t.Helper()
	durable := db.log != nil
	want, wantOK, wantSpill := m.changes(w, durable)
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
// duplicates, deletes that reset a ring, enough rows to wrap every ring
// several times — through the engine and the naive slice model, and
// requires identical rings, floors and Changes answers at every watermark.
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
			opts := Options{ChangelogLimit: tc.limit, Shards: tc.shards}
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
			m := &ringModel{limit: db.changelogLimit(), shards: make([]modelShard, tc.shards), present: map[string]bool{}}
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			domain := tc.commits * 4
			every := tc.limit > 0 && tc.limit <= 6 // small runs: all watermarks after every commit
			for c := 0; c < tc.commits; c++ {
				tx := db.Begin()
				for n := 1 + rng.Intn(5); n > 0; n-- {
					tuple := emp(rng.Intn(domain), "x")
					if rng.Intn(tc.deleteOneIn) == 0 {
						tx.Delete("emp", tuple)
					} else {
						tx.Insert("emp", tuple)
					}
				}
				ops := tx.ops
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if len(ops) == 0 {
					continue // nothing staged: no commit, no LSN
				}
				m.apply(db.LSN(), ops)
				full := every || c%100 == 0 || c == tc.commits-1
				checkRing(t, db, m, full)
				if every || c == tc.commits-1 {
					// Large rings answer a mid-history watermark with
					// thousands of tuples: sweep those with a stride, the
					// floors' neighbourhood and the recent past densely.
					_, evicted := m.floors()
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
					poisoned, evicted := m.floors()
					marks = append(marks, poisoned, evicted, max(evicted, 1)-1, uint64(rng.Int63n(int64(m.lsn))))
				}
				for _, w := range marks {
					checkChanges(t, db, m, w)
				}
			}
			if _, evicted := m.floors(); evicted == 0 {
				t.Fatal("no ring ever wrapped: the case does not test eviction")
			}
		})
	}
}

// TestReplayRebuildsSameRing commits more than ChangelogLimit inserts (with
// a delete among them), kills the database without a checkpoint, and
// requires WAL replay to leave every shard's ring and floors exactly as
// the live commits did.
func TestReplayRebuildsSameRing(t *testing.T) {
	type dump struct {
		entries                 []modelChange
		lostBelow, evictedBelow uint64
	}
	dumpRings := func(db *DB) []dump {
		var out []dump
		for _, s := range db.tables["emp"].shards {
			d := dump{lostBelow: s.lostBelow, evictedBelow: s.evictedBelow}
			for i := 0; i < s.changes.n; i++ {
				c := s.changes.at(i)
				d.entries = append(d.entries, modelChange{lsn: c.lsn, key: c.tuple.Key()})
			}
			out = append(out, d)
		}
		return out
	}
	dir := t.TempDir()
	opts := Options{ChangelogLimit: 6, Shards: 2}
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
	live, lsn := dumpRings(db), db.LSN()
	db.crash()

	re := openDurable(t, dir, opts)
	defer re.Close()
	if re.LSN() != lsn {
		t.Fatalf("replayed LSN = %d, live %d", re.LSN(), lsn)
	}
	replayed := dumpRings(re)
	for i := range live {
		if live[i].evictedBelow == 0 {
			t.Fatalf("shard %d never evicted: the test does not cover wrap-around", i)
		}
		if fmt.Sprint(live[i]) != fmt.Sprint(replayed[i]) {
			t.Errorf("shard %d: live ring %v, replayed %v", i, live[i], replayed[i])
		}
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
