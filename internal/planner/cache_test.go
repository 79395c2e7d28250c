package planner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func cacheSpecs(n int, goal int64) []VCPUSpec {
	var specs []VCPUSpec
	for i := 0; i < n; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("vm%d", i),
			Util:        Util{Num: 1, Den: 4},
			LatencyGoal: goal,
			Capped:      true,
		})
	}
	return specs
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache(8)
	specs := cacheSpecs(8, 20_000_000)
	opts := Options{Cores: 2}
	r1, hit1, err := c.Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, hit2, err := c.Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical inputs did not share a cached result")
	}
	if hit1 || !hit2 {
		t.Errorf("Plan reported hit=%v then hit=%v, want a miss then a hit", hit1, hit2)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses", hits, misses)
	}
	// A different latency goal is a different key.
	if _, _, err := c.Plan(cacheSpecs(8, 30_000_000), opts); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	specs := cacheSpecs(4, 20_000_000)
	base := CacheKey(specs, Options{Cores: 2})
	if CacheKey(specs, Options{Cores: 3}) == base {
		t.Error("core count not in key")
	}
	if CacheKey(specs, Options{Cores: 2, Peephole: true}) == base {
		t.Error("peephole flag not in key")
	}
	if CacheKey(specs, Options{Cores: 2, SplitRotation: 1}) == base {
		t.Error("rotation not in key")
	}
	reordered := append([]VCPUSpec(nil), specs...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if CacheKey(reordered, Options{Cores: 2}) == base {
		t.Error("spec order must be part of the key (worst-fit ties are order-sensitive)")
	}
	capped := append([]VCPUSpec(nil), specs...)
	capped[0].Capped = false
	if CacheKey(capped, Options{Cores: 2}) == base {
		t.Error("capped flag not in key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	opts := Options{Cores: 1}
	for _, goal := range []int64{20e6, 30e6, 40e6} {
		if _, _, err := c.Plan(cacheSpecs(2, goal), opts); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction", c.Len())
	}
	// The oldest entry (20 ms) was evicted: replanning it is a miss.
	if _, _, err := c.Plan(cacheSpecs(2, 20e6), opts); err != nil {
		t.Fatal(err)
	}
	_, misses := c.Stats()
	if misses != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry replanned)", misses)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(4)
	bad := []VCPUSpec{{Name: "x", Util: Util{Num: 3, Den: 2}, LatencyGoal: 1e7}}
	if _, _, err := c.Plan(bad, Options{Cores: 1}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if c.Len() != 0 {
		t.Error("error result cached")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	var reported atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				goal := int64(10+(g+i)%4*10) * 1_000_000
				_, hit, err := c.Plan(cacheSpecs(4, goal), Options{Cores: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if hit {
					reported.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 160 {
		t.Errorf("hits+misses = %d, want 160", hits+misses)
	}
	if got := reported.Load(); got != hits {
		t.Errorf("callers were told of %d hits, the cache counted %d", got, hits)
	}
	if misses > 16 {
		t.Errorf("misses = %d, want at most a few per distinct key", misses)
	}
}

func TestCacheAdd(t *testing.T) {
	c := NewCache(4)
	specs := cacheSpecs(4, 20_000_000)
	opts := Options{Cores: 1}
	res, err := Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(specs, opts, res)
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Add counted as hit/miss: %d/%d", hits, misses)
	}
	got, _, err := c.Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Error("Plan after Add did not return the added result")
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	// Adding again keeps the existing entry.
	res2, _ := Plan(specs, opts)
	c.Add(specs, opts, res2)
	got, _, _ = c.Plan(specs, opts)
	if got != res {
		t.Error("Add displaced an existing entry")
	}
}
