package planner

import (
	"fmt"
	"math/rand"
	"testing"
)

// paperSpecs builds the paper's evaluation workload: vmsPerCore
// single-vCPU VMs per core, each reserving 1/vmsPerCore of a core with
// the given latency goal (Sec. 7.2: four VMs per core, 25% each, 20 ms).
func paperSpecs(cores, vmsPerCore int, latencyGoal int64, capped bool) []VCPUSpec {
	var specs []VCPUSpec
	for i := 0; i < cores*vmsPerCore; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("vm%d.0", i),
			Util:        Util{1, int64(vmsPerCore)},
			LatencyGoal: latencyGoal,
			Capped:      capped,
		})
	}
	return specs
}

func TestPlanPaperScenario(t *testing.T) {
	// 12 guest cores, 48 VMs at 25% utilization, 20 ms latency goal.
	specs := paperSpecs(12, 4, 20_000_000, true)
	res, err := Plan(specs, Options{Cores: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage != StagePartitioned {
		t.Errorf("stage = %v, want partitioned (regular workload)", res.Stage)
	}
	if len(res.Splits) != 0 {
		t.Errorf("splits = %v, want none", res.Splits)
	}
	tbl := res.Table
	if tbl.Len != 11_411_400 {
		t.Errorf("table length = %d, want one period (11411400)", tbl.Len)
	}
	// Every core should carry 4 vCPUs, each with ~3.21 ms per period.
	for _, ct := range tbl.Cores {
		seen := map[int]bool{}
		for _, a := range ct.Allocs {
			seen[a.VCPU] = true
		}
		if len(seen) != 4 {
			t.Errorf("core %d hosts %d vCPUs, want 4", ct.Core, len(seen))
		}
	}
	// Guarantees were checked by Plan; spot-check blackout directly.
	for _, g := range res.Guarantees {
		if g.MaxBlackout != 20_000_000 {
			t.Errorf("vcpu %d blackout bound = %d", g.VCPU, g.MaxBlackout)
		}
	}
}

func TestPlanRejectsOverUtilization(t *testing.T) {
	specs := paperSpecs(2, 4, 20_000_000, true)
	if _, err := Plan(specs, Options{Cores: 1}); err == nil {
		t.Error("over-utilized plan accepted")
	}
}

func TestPlanDedicatedCores(t *testing.T) {
	specs := []VCPUSpec{
		{Name: "whole", Util: Util{1, 1}, LatencyGoal: 1_000_000},
		{Name: "quarter", Util: Util{1, 4}, LatencyGoal: 30_000_000},
	}
	res, err := Plan(specs, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	slots := res.Table.VCPUSlots(0)
	if len(slots) != 1 || slots[0].Start != 0 || slots[0].End != res.Table.Len {
		t.Errorf("dedicated vCPU slots = %v, want whole table", slots)
	}
	if res.Table.VCPUs[0].HomeCore != 0 {
		t.Errorf("dedicated home core = %d", res.Table.VCPUs[0].HomeCore)
	}
}

func TestPlanSemiPartitioned(t *testing.T) {
	// Four tasks of 0.6 on 3 cores: total 2.4 <= 3 but only one fits
	// per core, so the fourth must split.
	var specs []VCPUSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{3, 5},
			LatencyGoal: 50_000_000,
		})
	}
	res, err := Plan(specs, Options{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage != StageSemiPartitioned {
		t.Fatalf("stage = %v, want semi-partitioned", res.Stage)
	}
	if len(res.Splits) == 0 {
		t.Fatal("no splits recorded")
	}
	split := res.Splits[0]
	if split.Pieces < 2 {
		t.Errorf("split pieces = %d", split.Pieces)
	}
	if !res.Table.VCPUs[split.VCPU].Split {
		t.Error("split vCPU not marked in table metadata")
	}
	// The table-level checks in Plan already proved service and
	// blackout; verify the non-parallelism invariant explicitly.
	if err := res.Table.Validate(); err != nil {
		t.Errorf("table invalid: %v", err)
	}
}

func TestPlanClustered(t *testing.T) {
	// Three tasks of 2/3 on 2 cores: partitioning and splitting place
	// at most ... splitting may actually succeed here, so disable it to
	// force the cluster path.
	var specs []VCPUSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{2, 3},
			LatencyGoal: 80_000_000,
		})
	}
	res, err := Plan(specs, Options{Cores: 2, DisableSplitting: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage != StageClustered {
		t.Fatalf("stage = %v, want clustered", res.Stage)
	}
	if len(res.ClusterCores) != 2 {
		t.Errorf("cluster cores = %v", res.ClusterCores)
	}
}

func TestPlanAblationFailsWithoutFallbacks(t *testing.T) {
	var specs []VCPUSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{2, 3},
			LatencyGoal: 80_000_000,
		})
	}
	_, err := Plan(specs, Options{Cores: 2, DisableSplitting: true, DisableClustering: true})
	if err == nil {
		t.Error("partition-only planner should fail on this set")
	}
}

func TestPlanMixedLatencyGoals(t *testing.T) {
	specs := []VCPUSpec{
		{Name: "tight", Util: Util{1, 2}, LatencyGoal: 1_000_000},
		{Name: "mid", Util: Util{1, 4}, LatencyGoal: 30_000_000},
		{Name: "loose", Util: Util{1, 8}, LatencyGoal: 100_000_000},
		{Name: "loose2", Util: Util{1, 8}, LatencyGoal: 100_000_000},
	}
	res, err := Plan(specs, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len > MaxHyperperiod {
		t.Errorf("table length %d exceeds hyperperiod bound", res.Table.Len)
	}
	if MaxHyperperiod%res.Table.Len != 0 {
		t.Errorf("table length %d does not divide the hyperperiod bound", res.Table.Len)
	}
}

func TestPlanUnenforceableLatency(t *testing.T) {
	specs := []VCPUSpec{{Name: "a", Util: Util{1, 4}, LatencyGoal: 10_000}}
	if _, err := Plan(specs, Options{Cores: 1}); err == nil {
		t.Error("10 µs goal at U=0.25 must be rejected")
	}
}

func TestPlanTableIsDispatchReady(t *testing.T) {
	specs := paperSpecs(4, 4, 20_000_000, false)
	res, err := Plan(specs, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Lookups anywhere must not panic and must return sane intervals.
	tbl := res.Table
	for core := 0; core < tbl.NumCores(); core++ {
		for _, now := range []int64{0, tbl.Len / 3, tbl.Len - 1, tbl.Len, 5 * tbl.Len / 2} {
			_, _, until := tbl.Lookup(core, now)
			if until <= now {
				t.Fatalf("Lookup(%d, %d) returned until=%d in the past", core, now, until)
			}
		}
	}
}

// Property: for random admissible workloads the planner either reports a
// descriptive error (only for genuinely hard cases) or produces a table
// that passes validation and the guarantee check — which Plan performs
// internally — plus the structural invariants re-verified here.
func TestPlanRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	succeeded := 0
	for trial := 0; trial < 60; trial++ {
		cores := 2 + rng.Intn(4)
		n := 1 + rng.Intn(4*cores)
		var specs []VCPUSpec
		for i := 0; i < n; i++ {
			den := int64(2 + rng.Intn(9))
			num := 1 + rng.Int63n(den-1)
			goal := int64(1+rng.Intn(100)) * 1_000_000
			specs = append(specs, VCPUSpec{
				Name:        fmt.Sprintf("t%d.v%d", trial, i),
				Util:        Util{num, den},
				LatencyGoal: goal,
				Capped:      rng.Intn(2) == 0,
			})
		}
		if Admit(specs, cores) != nil {
			continue
		}
		res, err := Plan(specs, Options{Cores: cores})
		if err != nil {
			// Acceptable only if the workload was genuinely hard; the
			// planner should essentially never fail for admissible
			// sets, so flag failures.
			t.Fatalf("trial %d: plan failed for admissible set: %v", trial, err)
		}
		succeeded++
		if err := res.Table.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Table.Check(res.Guarantees); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if succeeded < 20 {
		t.Fatalf("only %d plans exercised", succeeded)
	}
}

func TestPlanHighDensity176VMs(t *testing.T) {
	if testing.Short() {
		t.Skip("large planning run")
	}
	// The Fig. 3 stress case: 44 guest cores, 176 VMs.
	specs := paperSpecs(44, 4, 30_000_000, true)
	res, err := Plan(specs, Options{Cores: 44})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.VCPUs); got != 176 {
		t.Errorf("vcpus = %d", got)
	}
	var _ = res
}
