package planner

import (
	"fmt"
	"testing"
)

func affinitySpecs() []VCPUSpec {
	var specs []VCPUSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{Num: 1, Den: 4},
			LatencyGoal: 20_000_000,
			Capped:      true,
		})
	}
	return specs
}

func TestAffinityHonoredByPartitioning(t *testing.T) {
	specs := affinitySpecs()
	aff := map[string][]int{
		"v0": {2}, // pin v0 to core 2
		"v1": {0, 1},
	}
	res, err := Plan(specs, Options{Cores: 3, Affinity: aff})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Table.Cores[0].Allocs {
		if a.VCPU == 0 {
			t.Errorf("v0 placed on core 0 despite affinity to core 2")
		}
	}
	slots := res.Table.VCPUSlots(0)
	if len(slots) == 0 {
		t.Fatal("v0 has no reservations")
	}
	if got := res.Table.CoreOfVCPUAt(0, slots[0].Start); got != 2 {
		t.Errorf("v0 on core %d, want 2", got)
	}
	// v1 must be on core 0 or 1.
	s1 := res.Table.VCPUSlots(1)
	if len(s1) == 0 {
		t.Fatal("v1 has no reservations")
	}
	if c := res.Table.CoreOfVCPUAt(1, s1[0].Start); c != 0 && c != 1 {
		t.Errorf("v1 on core %d, want 0 or 1", c)
	}
}

func TestAffinityOverloadRejected(t *testing.T) {
	// Five 25% vCPUs pinned to a single core: the affinity-set bound
	// must reject this even though the machine has room.
	specs := affinitySpecs()[:5]
	aff := map[string][]int{}
	for _, s := range specs {
		aff[s.Name] = []int{0}
	}
	if _, err := Plan(specs, Options{Cores: 4, Affinity: aff}); err == nil {
		t.Error("over-committed affinity set accepted")
	}
}

func TestAffinityBadCoreRejected(t *testing.T) {
	specs := affinitySpecs()[:1]
	if _, err := Plan(specs, Options{Cores: 2, Affinity: map[string][]int{"v0": {7}}}); err == nil {
		t.Error("out-of-range affinity core accepted")
	}
}

func TestAffinitySplitStaysInSet(t *testing.T) {
	// Three 60% vCPUs restricted to cores {0,1}: one must split, and
	// every piece must stay inside the affinity set.
	var specs []VCPUSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{Num: 3, Den: 5},
			LatencyGoal: 50_000_000,
		})
	}
	aff := map[string][]int{"v0": {0, 1}, "v1": {0, 1}, "v2": {0, 1}}
	res, err := Plan(specs, Options{Cores: 3, Affinity: aff})
	if err != nil {
		t.Fatal(err)
	}
	// Core 2 must be empty: everyone is pinned to {0,1}.
	if len(res.Table.Cores[2].Allocs) != 0 {
		t.Errorf("core 2 has allocations despite affinity: %v", res.Table.Cores[2].Allocs)
	}
	if res.Stage != StageSemiPartitioned {
		t.Errorf("stage = %v, want a split inside the affinity set", res.Stage)
	}
}

func TestAffinityUnplaceableReportsClearly(t *testing.T) {
	// Two 2/3 vCPUs pinned to one core pass the per-set utilization sum
	// check only if... 4/3 > 1, so bound rejects; use a case that passes
	// the bound but defeats placement: three 2/3 vCPUs on two cores
	// pinned to {0,1} — needs the cluster stage, which affinity forbids.
	var specs []VCPUSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{Num: 2, Den: 3},
			LatencyGoal: 80_000_000,
		})
	}
	aff := map[string][]int{"v0": {0, 1}, "v1": {0, 1}, "v2": {0, 1}}
	_, err := Plan(specs, Options{Cores: 4, Affinity: aff, DisableSplitting: true})
	if err == nil {
		t.Fatal("unplaceable affine population accepted")
	}
}
