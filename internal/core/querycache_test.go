package core

import (
	"fmt"
	"sync"
	"testing"

	"codb/internal/cq"
	"codb/internal/relation"
)

func TestQueryCacheHitMissInvalidation(t *testing.T) {
	c := NewQueryCache(4)
	key := CacheKey(cq.MustParseQuery(`ans(x) :- data(x, y)`), AllAnswers)
	ans := []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}}

	if _, ok := c.Get(key, 5, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, 5, 1, ans)
	got, ok := c.Get(key, 5, 1)
	if !ok || len(got) != 2 {
		t.Fatalf("expected hit with 2 answers, got ok=%v n=%d", ok, len(got))
	}
	// The returned slice is a private copy: appending to it must not
	// corrupt the cached entry.
	_ = append(got, relation.Tuple{relation.Int(3)})
	if again, _ := c.Get(key, 5, 1); len(again) != 2 {
		t.Fatalf("cached entry mutated through a returned slice: %d answers", len(again))
	}

	// A newer LSN invalidates; so does a newer rule-set version.
	if _, ok := c.Get(key, 6, 1); ok {
		t.Fatal("hit across an LSN advance")
	}
	c.Put(key, 6, 1, ans)
	if _, ok := c.Get(key, 6, 2); ok {
		t.Fatal("hit across a rule-set change")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 3 || st.Stale != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 3 misses / 2 stale", st)
	}
}

func TestQueryCacheEviction(t *testing.T) {
	c := NewQueryCache(2)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, 1, nil)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", st.Entries)
	}
	if _, ok := c.Get("k0", 1, 1); ok {
		t.Fatal("LRU entry k0 survived eviction")
	}
	if _, ok := c.Get("k2", 1, 1); !ok {
		t.Fatal("most recent entry k2 evicted")
	}
}

func TestQueryCacheConcurrent(t *testing.T) {
	c := NewQueryCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%40)
				if _, ok := c.Get(key, uint64(i%3), 0); !ok {
					c.Put(key, uint64(i%3), 0, []relation.Tuple{{relation.Int(g)}})
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 32 {
		t.Fatalf("cache exceeded its bound: %d entries", st.Entries)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	a := cq.MustParseQuery(`ans(x, y) :- data(x, y), x > 3`)
	b := cq.MustParseQuery(`ans(k, v) :- data(k, v), k > 3`)
	if CacheKey(a, AllAnswers) != CacheKey(b, AllAnswers) {
		t.Fatalf("alpha-equivalent queries key differently:\n%s\n%s",
			CacheKey(a, AllAnswers), CacheKey(b, AllAnswers))
	}
	if CacheKey(a, AllAnswers) == CacheKey(a, CertainAnswers) {
		t.Fatal("answer modes share a cache key")
	}
	for _, mode := range []QueryMode{AllAnswers, CertainAnswers} {
		if got, want := CacheKeys(a)[mode], CacheKey(a, mode); got != want {
			t.Fatalf("CacheKeys under mode %d = %s, want CacheKey's %s", mode, got, want)
		}
	}
	c := cq.MustParseQuery(`ans(y, x) :- data(x, y), x > 3`)
	if CacheKey(a, AllAnswers) == CacheKey(c, AllAnswers) {
		t.Fatal("distinct projections share a cache key")
	}
	d := cq.MustParseQuery(`ans(x, y) :- data(x, y), x > 4`)
	if CacheKey(a, AllAnswers) == CacheKey(d, AllAnswers) {
		t.Fatal("distinct constants share a cache key")
	}
}
