package planner

import "testing"

// TestCacheKeyIncludesAffinity is the regression test for the planner-
// cache staleness bug: the affinity map encodes the caller's view of the
// topology (core.System narrows physical affinity sets onto the live
// cores before planning), so two requests identical up to affinity must
// not share an entry. Before the fix the key omitted Affinity entirely
// and a post-failure replan could be served a table planned for the
// pre-failure topology.
func TestCacheKeyIncludesAffinity(t *testing.T) {
	specs := cacheSpecs(2, 20_000_000)
	base := CacheKey(specs, Options{Cores: 2})
	pinned := CacheKey(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {0}}})
	if pinned == base {
		t.Error("affinity presence not in key")
	}
	moved := CacheKey(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {1}}})
	if moved == pinned {
		t.Error("affinity core set not in key")
	}
	grown := CacheKey(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {0, 1}}})
	if grown == pinned {
		t.Error("affinity set size not in key")
	}
	// Map iteration order must not leak into the key.
	a := CacheKey(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {0}, "vm1": {1}}})
	b := CacheKey(specs, Options{Cores: 2, Affinity: map[string][]int{"vm1": {1}, "vm0": {0}}})
	if a != b {
		t.Error("affinity key depends on map iteration order")
	}
}

// TestCachePlansAffinityVariantsSeparately drives the staleness bug end
// to end through Cache.Plan: the same population pinned to different
// cores must yield distinct entries with the pin actually honored.
func TestCachePlansAffinityVariantsSeparately(t *testing.T) {
	c := NewCache(8)
	specs := cacheSpecs(2, 20_000_000)
	r0, _, err := c.Plan(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {0}}})
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := c.Plan(specs, Options{Cores: 2, Affinity: map[string][]int{"vm0": {1}}})
	if err != nil {
		t.Fatal(err)
	}
	if r0 == r1 {
		t.Fatal("different affinity served the same cached result")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 distinct entries", c.Len())
	}
	if got := r0.Table.VCPUs[0].HomeCore; got != 0 {
		t.Errorf("vm0 pinned to core 0 got home core %d", got)
	}
	if got := r1.Table.VCPUs[0].HomeCore; got != 1 {
		t.Errorf("vm0 pinned to core 1 got home core %d", got)
	}
}
