package core

import (
	"fmt"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/vmm"
)

func quarterVM(name string) VMConfig {
	return VMConfig{Name: name, Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true}
}

func TestPlanRemapsToSlotIDs(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	a, _ := s.AddVM(quarterVM("a"))
	b, _ := s.AddVM(quarterVM("b"))
	c, _ := s.AddVM(quarterVM("c"))
	if err := s.SetActive(b, false); err != nil {
		t.Fatal(err)
	}
	tbl, res, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.VCPUs) != 3 {
		t.Fatalf("table has %d vCPUs, want one per slot", len(tbl.VCPUs))
	}
	if len(tbl.VCPUSlots(b)) != 0 {
		t.Error("inactive slot received reservations")
	}
	if len(tbl.VCPUSlots(a)) == 0 || len(tbl.VCPUSlots(c)) == 0 {
		t.Error("active slots missing reservations")
	}
	if !tbl.VCPUs[b].Capped {
		t.Error("inactive slot must be fenced from second-level scheduling")
	}
	// Guarantees must be expressed in slot ids.
	for _, g := range res.Guarantees {
		if g.VCPU == b {
			t.Error("guarantee issued for inactive slot")
		}
		if g.VCPU != a && g.VCPU != c {
			t.Errorf("guarantee for unknown slot %d", g.VCPU)
		}
	}
	if err := tbl.Check(res.Guarantees); err != nil {
		t.Errorf("remapped table fails remapped guarantees: %v", err)
	}
}

func TestPlanFailsWithNoActiveVMs(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	id, _ := s.AddVM(quarterVM("a"))
	s.SetActive(id, false)
	if _, _, err := s.Plan(); err == nil {
		t.Error("planning an empty system should fail")
	}
}

func TestAddVMValidates(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	if _, err := s.AddVM(VMConfig{Name: "bad", Util: Util{Num: 0, Den: 1}, LatencyGoal: 1e7}); err == nil {
		t.Error("invalid utilization accepted")
	}
	if _, err := s.AddVM(VMConfig{Name: "bad2", Util: Util{Num: 1, Den: 4}, LatencyGoal: 0}); err == nil {
		t.Error("invalid latency accepted")
	}
}

func TestReconfigure(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	id, _ := s.AddVM(quarterVM("a"))
	if err := s.Reconfigure(id, Util{Num: 1, Den: 2}, 30_000_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Config(id); got.Util != (Util{Num: 1, Den: 2}) || got.LatencyGoal != 30_000_000 {
		t.Errorf("config = %+v", got)
	}
	if err := s.Reconfigure(id, Util{Num: 5, Den: 4}, 1); err == nil {
		t.Error("invalid reconfiguration accepted")
	}
	if err := s.Reconfigure(99, Util{Num: 1, Den: 2}, 1e7); err == nil {
		t.Error("unknown slot accepted")
	}
	if err := s.SetActive(99, false); err == nil {
		t.Error("unknown slot accepted by SetActive")
	}
}

func TestGenerationIncrements(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	s.AddVM(quarterVM("a"))
	t1, _, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if t2.Generation != t1.Generation+1 {
		t.Errorf("generations: %d then %d", t1.Generation, t2.Generation)
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	// Build a 2-core system with 4 VM slots; run it, then "tear down"
	// one VM and push a regenerated table into the live dispatcher.
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	var ids []int
	for _, n := range []string{"a", "b", "c", "d"} {
		id, err := s.AddVM(VMConfig{Name: n, Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d, _, err := s.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	m := vmm.New(sim.New(1), 2, d, vmm.NoOverheads())
	var vs []*vmm.VCPU
	for _, n := range []string{"a", "b", "c", "d"} {
		vs = append(vs, m.AddVCPU(n, vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
			return vmm.Compute(1_000_000)
		}), 256, true))
	}
	m.Start()
	m.Run(100_000_000)
	for i, v := range vs {
		if v.RunTime == 0 {
			t.Errorf("vm %d never ran", i)
		}
	}
	before := vs[3].RunTime

	// Tear down VM d; its reservations disappear after the switch.
	if err := s.SetActive(ids[3], false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(d); err != nil {
		t.Fatal(err)
	}
	m.Run(400_000_000)
	// d is capped with no reservations in the new table: it stopped
	// accumulating runtime shortly after the switch.
	grown := vs[3].RunTime - before
	if grown > 30_000_000 {
		t.Errorf("torn-down VM kept running: +%d ns after teardown", grown)
	}
	for i := 0; i < 3; i++ {
		if vs[i].RunTime < 90_000_000 {
			t.Errorf("vm %d starved after reconfiguration: %d", i, vs[i].RunTime)
		}
	}
}

func TestPushToIncompatibleDispatcherFails(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	s.AddVM(quarterVM("a"))
	tbl, _, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	d := dispatch.New(tbl, dispatch.Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	m.AddVCPU("a", vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.Compute(1000)
	}), 256, true)
	m.Start()
	// A table with a different vCPU universe must be rejected.
	bad := &table.Table{Len: tbl.Len, VCPUs: make([]table.VCPUInfo, 5)}
	if err := d.PushTable(bad); err == nil {
		t.Error("incompatible table accepted")
	}
}

func TestRotateSplitsTakesTurns(t *testing.T) {
	// Four equal 0.6 VMs on 3 cores: someone must be split each plan.
	// With rotation enabled, successive replans split different VMs.
	s := NewSystem(3, planner.Options{}, dispatch.Options{})
	s.RotateSplits = true
	for i := 0; i < 4; i++ {
		if _, err := s.AddVM(VMConfig{
			Name:        fmt.Sprintf("v%d", i),
			Util:        Util{Num: 3, Den: 5},
			LatencyGoal: 50_000_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	victims := make(map[int]bool)
	for round := 0; round < 4; round++ {
		_, res, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Splits) == 0 {
			t.Fatalf("round %d: no split", round)
		}
		for _, sp := range res.Splits {
			victims[sp.VCPU] = true
		}
	}
	if len(victims) < 2 {
		t.Errorf("rotation did not move the split burden: victims = %v", victims)
	}
}

func TestMultiVM(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	ids, err := s.AddMultiVM("db", 3, Util{Num: 1, Den: 4}, 20_000_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if got := s.Config(ids[1]).Name; got != "db.1" {
		t.Errorf("name = %q", got)
	}
	if _, err := s.AddMultiVM("bad", 0, Util{Num: 1, Den: 4}, 1e7, false); err == nil {
		t.Error("zero-vCPU VM accepted")
	}
	tbl, res, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(res.Guarantees); err != nil {
		t.Error(err)
	}
}

// TestCachedPlanMatchesDirectAndKeepsCacheImmutable exercises the
// shared planner cache path: two systems with different slot layouts
// share one cache, so the second system's Plan is a cache hit whose
// result must be remapped into *its* slot universe — which only works
// if the hit was cloned and the cached original left untouched.
func TestCachedPlanMatchesDirectAndKeepsCacheImmutable(t *testing.T) {
	cache := planner.NewCache(8)

	direct := NewSystem(2, planner.Options{}, dispatch.Options{})
	direct.AddVM(quarterVM("a"))
	direct.AddVM(quarterVM("b"))
	dtbl, dres, err := direct.Plan()
	if err != nil {
		t.Fatal(err)
	}

	// Same specs planned through the cache (miss, then hit).
	for trial := 0; trial < 3; trial++ {
		s := NewSystem(2, planner.Options{}, dispatch.Options{})
		s.Cache = cache
		s.AddVM(quarterVM("a"))
		s.AddVM(quarterVM("b"))
		tbl, res, err := s.Plan()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.FromCache != (trial > 0) {
			t.Errorf("trial %d: FromCache = %v, want a miss first and hits after", trial, res.FromCache)
		}
		if len(tbl.VCPUs) != len(dtbl.VCPUs) || len(res.Guarantees) != len(dres.Guarantees) {
			t.Fatalf("trial %d: cached plan shape differs from direct plan", trial)
		}
		for i, g := range res.Guarantees {
			if g != dres.Guarantees[i] {
				t.Errorf("trial %d: guarantee %d = %+v, want %+v", trial, i, g, dres.Guarantees[i])
			}
		}
		if err := tbl.Check(res.Guarantees); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses; want 2, 1", hits, misses)
	}

	// A system with extra inactive slots remaps guarantees to different
	// slot ids; a second hit afterwards must still see the original ids.
	shifted := NewSystem(2, planner.Options{}, dispatch.Options{})
	shifted.Cache = cache
	pad, _ := shifted.AddVM(quarterVM("pad"))
	shifted.AddVM(quarterVM("a"))
	shifted.AddVM(quarterVM("b"))
	shifted.SetActive(pad, false)
	_, sres, err := shifted.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range sres.Guarantees {
		if g.VCPU == pad {
			t.Error("guarantee remapped onto inactive pad slot")
		}
	}

	again := NewSystem(2, planner.Options{}, dispatch.Options{})
	again.Cache = cache
	again.AddVM(quarterVM("a"))
	again.AddVM(quarterVM("b"))
	_, ares, err := again.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ares.Guarantees {
		if g != dres.Guarantees[i] {
			t.Errorf("cached entry was mutated by an earlier remap: guarantee %d = %+v, want %+v", i, g, dres.Guarantees[i])
		}
	}
}
