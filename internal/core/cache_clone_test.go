package core

import (
	"reflect"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
)

// TestCacheHitResultOwnsItsGuarantees pins what System.Plan's result
// owns when the planner cache served it: the guarantees (renumbered into
// slot ids) and the table are the caller's, so writing them must not
// reach the cached Result that later hits are served from — and the
// renumbering itself must not have been done on the cached Result in
// place. Tasks, Splits and ClusterCores are shared with the cache,
// read-only.
func TestCacheHitResultOwnsItsGuarantees(t *testing.T) {
	cache := planner.NewCache(0)

	// An inactive slot in front makes slot ids differ from spec order,
	// so an in-place renumbering of the cached guarantees would show.
	padded := func() *System {
		sys := NewSystem(2, planner.Options{}, dispatch.Options{})
		sys.Cache = cache
		if _, err := sys.AddVM(VMConfig{Name: "pad", Util: Util{Num: 1, Den: 8}, LatencyGoal: 10_000_000}); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetActive(0, false); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if _, err := sys.AddVM(VMConfig{Name: name, Util: Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000}); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}

	_, res1, err := padded().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Splits) == 0 || len(res1.Tasks) == 0 {
		t.Fatalf("population did not force splitting (splits=%d tasks=%d)", len(res1.Splits), len(res1.Tasks))
	}
	for i, g := range res1.Guarantees {
		if g.VCPU != i+1 {
			t.Fatalf("guarantee %d names vcpu %d, want slot id %d", i, g.VCPU, i+1)
		}
	}
	// Trash what the caller owns.
	for i := range res1.Guarantees {
		res1.Guarantees[i].VCPU = 999
		res1.Guarantees[i].Service = -1
	}
	res1.Table.Len = -1

	// A second system planning the identical population is served from
	// the cache — and sees the planner's numbers, not ours.
	_, res2, err := padded().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromCache {
		t.Fatal("second plan did not hit the cache; the property was not exercised")
	}
	for i, g := range res2.Guarantees {
		if g.VCPU != i+1 || g.Service <= 0 {
			t.Errorf("cache-served guarantee was corrupted by the first caller: %+v", g)
		}
	}
	if res2.Table.Len <= 0 {
		t.Errorf("cache-served table was corrupted by the first caller: Len %d", res2.Table.Len)
	}

	// The cached Result itself is still in the planner universe.
	specs := []planner.VCPUSpec{
		{Name: "a", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
		{Name: "b", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
		{Name: "c", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
	}
	shared, hit, err := cache.Plan(specs, planner.Options{Cores: 2})
	if err != nil || !hit {
		t.Fatalf("direct lookup of the cached plan: hit=%v err=%v", hit, err)
	}
	for i, g := range shared.Guarantees {
		if g.VCPU != i {
			t.Errorf("cached guarantee %d was renumbered in place: vcpu %d", i, g.VCPU)
		}
	}
	if shared.FromCache || shared.Table.Generation != 1 {
		t.Errorf("cached Result was written to: FromCache=%v Generation=%d", shared.FromCache, shared.Table.Generation)
	}
}

// TestResultCloneIsDeep pins planner.Result.Clone directly: mutating
// the clone must leave the original untouched.
func TestResultCloneIsDeep(t *testing.T) {
	specs := []planner.VCPUSpec{
		{Name: "a", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
		{Name: "b", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
		{Name: "c", Util: planner.Util{Num: 2, Den: 3}, LatencyGoal: 10_000_000},
	}
	orig, err := planner.Plan(specs, planner.Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := orig.Clone()
	got := orig.Clone()
	for i := range got.Guarantees {
		got.Guarantees[i].VCPU = 999
	}
	for i := range got.Tasks {
		got.Tasks[i].WCET = 1
	}
	for i := range got.Splits {
		for k := range got.Splits[i].Cores {
			got.Splits[i].Cores[k] = 999
		}
	}
	for i := range got.ClusterCores {
		got.ClusterCores[i] = 999
	}
	if !reflect.DeepEqual(orig.Guarantees, want.Guarantees) ||
		!reflect.DeepEqual(orig.Tasks, want.Tasks) ||
		!reflect.DeepEqual(orig.Splits, want.Splits) ||
		!reflect.DeepEqual(orig.ClusterCores, want.ClusterCores) {
		t.Fatal("mutating a clone reached through to the original result")
	}
}
