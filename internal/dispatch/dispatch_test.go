package dispatch

import (
	"testing"

	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/vmm"
)

// buildTable constructs and finalizes a table for tests.
func buildTable(t *testing.T, tlen int64, vcpus []table.VCPUInfo, allocs [][]table.Alloc) *table.Table {
	t.Helper()
	tbl := &table.Table{Len: tlen, VCPUs: vcpus, Generation: 1}
	for i, as := range allocs {
		tbl.Cores = append(tbl.Cores, table.CoreTable{Core: i, Allocs: as})
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func spin() vmm.Program {
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.Compute(1_000_000)
	})
}

func sleepForever() vmm.Program {
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.BlockIndefinitely()
	})
}

func al(s, e int64, v int) table.Alloc { return table.Alloc{Start: s, End: e, VCPU: v} }

func TestCappedVCPUsGetExactReservation(t *testing.T) {
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: true, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 30_000, 0), al(30_000, 80_000, 1)}})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	a := m.AddVCPU("a", spin(), 256, true)
	b := m.AddVCPU("b", spin(), 256, true)
	m.Start()
	m.Run(1_000_000) // 10 cycles
	if a.RunTime != 300_000 {
		t.Errorf("a.RunTime = %d, want 300000", a.RunTime)
	}
	if b.RunTime != 500_000 {
		t.Errorf("b.RunTime = %d, want 500000", b.RunTime)
	}
	// The [80,100) µs window per cycle must stay idle: both capped.
	if got := m.CPUs[0].IdleTime; got != 200_000 {
		t.Errorf("idle = %d, want 200000", got)
	}
	st := d.Stats()
	if st.SecondLevelDispatches != 0 {
		t.Errorf("capped vCPUs must never be level-2 dispatched: %+v", st)
	}
}

func TestSecondLevelUsesIdleAndForfeitedTime(t *testing.T) {
	// a is uncapped and spins; b is capped but always blocked, so its
	// reserved window and the idle tail both go to a via level 2.
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: false, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 30_000, 0), al(30_000, 80_000, 1)}})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	a := m.AddVCPU("a", spin(), 256, false)
	m.AddVCPU("b", sleepForever(), 256, true)
	m.Start()
	m.Run(1_000_000)
	if a.RunTime != 1_000_000 {
		t.Errorf("a.RunTime = %d, want the whole machine (1000000)", a.RunTime)
	}
	st := d.Stats()
	if st.SecondLevelDispatches == 0 {
		t.Error("second level never dispatched")
	}
	if st.TableDispatches == 0 {
		t.Error("table level never dispatched")
	}
}

func TestSecondLevelFairShare(t *testing.T) {
	// Two uncapped spinners share a mostly-idle table evenly.
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", HomeCore: 0},
		{Name: "b", HomeCore: 0},
	}, [][]table.Alloc{{al(0, 10_000, 0), al(10_000, 20_000, 1)}})
	d := New(tbl, Options{Epoch: 50_000})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	a := m.AddVCPU("a", spin(), 256, false)
	b := m.AddVCPU("b", spin(), 256, false)
	m.Start()
	m.Run(10_000_000)
	total := a.RunTime + b.RunTime
	if total != 10_000_000 {
		t.Fatalf("total = %d, want work-conserving 10ms", total)
	}
	diff := a.RunTime - b.RunTime
	if diff < 0 {
		diff = -diff
	}
	if diff > total/10 {
		t.Errorf("unfair share: a=%d b=%d", a.RunTime, b.RunTime)
	}
}

func TestWakeupLatencyBoundedByTable(t *testing.T) {
	// A capped vCPU reserved [0, 10µs) of every 100 µs cycle. Pings
	// arrive at random; the response latency must never exceed the
	// 90 µs + 10µs blackout+service window.
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "ping", Capped: true, HomeCore: 0},
		{Name: "bg", Capped: false, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 10_000, 0), al(10_000, 100_000, 1)}})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(7), 1, d, vmm.NoOverheads())

	var pending []int64 // arrival times
	var latencies []int64
	server := vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		if len(pending) == 0 {
			return vmm.BlockIndefinitely()
		}
		arrival := pending[0]
		pending = pending[1:]
		latencies = append(latencies, now-arrival)
		return vmm.Compute(100) // 100 ns to answer the ping
	})
	pingV := m.AddVCPU("ping", server, 256, true)
	m.AddVCPU("bg", spin(), 256, false)
	m.Start()
	// Send 200 pings at random times.
	for i := 0; i < 200; i++ {
		at := m.Eng.Rand().Int63n(20_000_000)
		m.Eng.At(at, func(now int64) {
			pending = append(pending, now)
			m.Wake(pingV)
		})
	}
	m.Run(25_000_000)
	if len(latencies) < 150 {
		t.Fatalf("only %d pings served", len(latencies))
	}
	var worst int64
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	// Worst case: arrive just after the slot ends, wait out the 90 µs
	// blackout, plus queueing of earlier pings within the slot.
	if worst > 101_000 {
		t.Errorf("worst ping latency = %d ns, want <= ~100 µs", worst)
	}
}

func TestCrossCoreSplitNeverRunsParallel(t *testing.T) {
	// vCPU 0 is split: back-to-back allocations on cores 0 and 1 (the
	// machine panics if a scheduler ever runs one vCPU on two cores).
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "split", Capped: true, HomeCore: 0, Split: true},
		{Name: "x", Capped: true, HomeCore: 1},
	}, [][]table.Alloc{
		{al(0, 50_000, 0)},
		{al(50_000, 70_000, 0), al(70_000, 100_000, 1)},
	})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 2, d, vmm.NoOverheads())
	split := m.AddVCPU("split", spin(), 256, true)
	m.AddVCPU("x", spin(), 256, true)
	m.Start()
	m.Run(2_000_000)
	// 70 µs per 100 µs cycle across both cores.
	if split.RunTime != 1_400_000 {
		t.Errorf("split.RunTime = %d, want 1400000", split.RunTime)
	}
}

func TestStatsLevelAttribution(t *testing.T) {
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", HomeCore: 0},
	}, [][]table.Alloc{{al(0, 25_000, 0)}})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	m.AddVCPU("a", spin(), 256, false)
	m.Start()
	m.Run(1_000_000)
	st := d.Stats()
	if st.PerVCPUTable[0] == 0 || st.PerVCPUSecond[0] == 0 {
		t.Errorf("per-vCPU attribution missing: %+v", st)
	}
	// An uncapped spinner alone on the core: level-2 decisions dominate
	// whenever the table interval is idle (75%% of each cycle).
	if st.SecondLevelDispatches < st.TableDispatches {
		t.Errorf("expected L2 to dominate: %+v", st)
	}
}

func TestPushTableSwitchesAtBoundary(t *testing.T) {
	old := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: true, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 50_000, 0)}})
	newTbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: true, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 50_000, 1)}})
	newTbl.Generation = 2

	d := New(old, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	a := m.AddVCPU("a", spin(), 256, true)
	b := m.AddVCPU("b", spin(), 256, true)
	m.Start()
	m.Run(130_000) // position 30% into cycle 1
	if err := d.PushTable(newTbl); err != nil {
		t.Fatal(err)
	}
	// Switch arms for cycle 2 (pos < half): b must take over at 200 µs.
	m.Run(1_000_000)
	// a ran cycles 0 and 1 (2 * 50 µs); b ran cycles 2..9 (8 * 50 µs).
	if a.RunTime != 100_000 {
		t.Errorf("a.RunTime = %d, want 100000", a.RunTime)
	}
	if b.RunTime != 400_000 {
		t.Errorf("b.RunTime = %d, want 400000", b.RunTime)
	}
	if d.Stats().TableSwitches == 0 {
		t.Error("switch not recorded")
	}
}

func TestPushTableLateArmsForCycleAfterNext(t *testing.T) {
	old := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: true, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 50_000, 0)}})
	newTbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "a", Capped: true, HomeCore: 0},
		{Name: "b", Capped: true, HomeCore: 0},
	}, [][]table.Alloc{{al(0, 50_000, 1)}})
	d := New(old, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	a := m.AddVCPU("a", spin(), 256, true)
	m.AddVCPU("b", spin(), 256, true)
	m.Start()
	m.Run(180_000) // position 80% into cycle 1: too close to the wrap
	if err := d.PushTable(newTbl); err != nil {
		t.Fatal(err)
	}
	m.Run(1_000_000)
	// a keeps cycles 0, 1 and 2 (switch armed for cycle 3).
	if a.RunTime != 150_000 {
		t.Errorf("a.RunTime = %d, want 150000", a.RunTime)
	}
}

func TestWakeRoutesToReservedCore(t *testing.T) {
	// vCPU 0 reserved on core 1; waking it must kick core 1, promptly
	// interrupting that core's second-level filler.
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "srv", Capped: true, HomeCore: 1},
		{Name: "bg", Capped: false, HomeCore: 1},
	}, [][]table.Alloc{
		{},
		{al(0, 100_000, 0)},
	})
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 2, d, vmm.NoOverheads())
	work := false
	srv := m.AddVCPU("srv", vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		if work {
			work = false
			return vmm.Compute(1_000)
		}
		return vmm.BlockIndefinitely()
	}), 256, true)
	m.AddVCPU("bg", spin(), 256, false)
	m.Start()
	m.Run(10_000)
	m.Eng.At(20_000, func(int64) { work = true; m.Wake(srv) })
	m.Run(100_000)
	if srv.Wakeups != 1 {
		t.Errorf("wakeups = %d", srv.Wakeups)
	}
	if srv.RunTime == 0 {
		t.Error("reserved vCPU did not run promptly after wake")
	}
}

func TestTrailingCorePolicyForSplitVCPUs(t *testing.T) {
	// vCPU 0 is split and *uncapped*: its second-level membership must
	// follow the core of its most recent table allocation (the paper's
	// trailing-core policy). Core 0 hosts its first-half reservation,
	// core 1 the second; the rest of each core is idle, so L2 time
	// follows the membership.
	tbl := buildTable(t, 100_000, []table.VCPUInfo{
		{Name: "split", Capped: false, HomeCore: 0, Split: true},
		{Name: "x", Capped: true, HomeCore: 1},
	}, [][]table.Alloc{
		{al(0, 10_000, 0)},
		{al(50_000, 60_000, 0), al(60_000, 70_000, 1)},
	})
	d := New(tbl, Options{Epoch: 10_000})
	m := vmm.New(sim.New(1), 2, d, vmm.NoOverheads())
	split := m.AddVCPU("split", spin(), 256, false)
	m.AddVCPU("x", spin(), 256, true)
	m.Start()
	m.Run(1_000_000)
	// The split vCPU's reservations are 20% of a cycle; with L2
	// following it across both cores it should collect far more.
	if split.RunTime < 500_000 {
		t.Errorf("split uncapped vCPU got %d ns of 1 ms; trailing-core L2 missing", split.RunTime)
	}
	st := d.Stats()
	if st.PerVCPUSecond[0] == 0 {
		t.Error("split vCPU never dispatched by the second level")
	}
	if st.TableDispatches == 0 {
		t.Error("table level idle")
	}
}

func TestStatsAccessorsAndName(t *testing.T) {
	tbl := buildTable(t, 100_000, []table.VCPUInfo{{Name: "a", HomeCore: 0}},
		[][]table.Alloc{{al(0, 10_000, 0)}})
	d := New(tbl, Options{})
	if d.Name() != "tableau" {
		t.Errorf("Name() = %q", d.Name())
	}
}
