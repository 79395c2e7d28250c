package dispatch

import (
	"fmt"
	"testing"

	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/vmm"
)

// settledRig starts a one-core machine with n compute-bound vCPUs under
// a dispatcher for tbl and runs it just long enough to settle.
func settledRig(tb testing.TB, tbl *table.Table, n int, capped bool) (*Dispatcher, *vmm.PCPU) {
	tb.Helper()
	if err := tbl.Validate(); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.BuildSlices(0); err != nil {
		tb.Fatal(err)
	}
	d := New(tbl, Options{})
	m := vmm.New(sim.New(1), 1, d, vmm.NoOverheads())
	for i := 0; i < n; i++ {
		m.AddVCPU(fmt.Sprintf("v%d", i), vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
			return vmm.Compute(1_000_000)
		}), 256, capped)
	}
	m.Start()
	m.Run(1_000)
	return d, m.CPUs[0]
}

// hotPathRig is a realistic four-VMs-per-core table of capped vCPUs:
// every pick is a first-level table lookup, the paper's O(1) claim.
// pick(i) is the i-th pick of the measured sequence.
func hotPathRig(tb testing.TB) (pick func(i int)) {
	tbl := &table.Table{Len: 11_411_400}
	for i := 0; i < 4; i++ {
		tbl.VCPUs = append(tbl.VCPUs, table.VCPUInfo{Name: fmt.Sprintf("v%d", i), Capped: true, HomeCore: 0})
		s := int64(i) * 2_852_850
		tbl.Cores = appendAlloc(tbl.Cores, 0, s, s+2_852_850, i)
	}
	d, cpu := settledRig(tb, tbl, 4, true)
	return func(i int) { d.PickNext(cpu, int64(i)*7919%tbl.Len) }
}

// tenancyRig is a dark second half of the frame with a mixed-class
// membership: half the uncapped vCPUs are marked best-effort, so every
// pick goes through the second-level scheduler and walks the LS-over-BE
// preference order.
func tenancyRig(tb testing.TB) (pick func(i int)) {
	tbl := &table.Table{Len: 11_411_400}
	half := tbl.Len / 2
	for i := 0; i < 8; i++ {
		tbl.VCPUs = append(tbl.VCPUs, table.VCPUInfo{Name: fmt.Sprintf("v%d", i), HomeCore: 0})
		s := int64(i) * (half / 8)
		tbl.Cores = appendAlloc(tbl.Cores, 0, s, s+half/8, i)
	}
	d, cpu := settledRig(tb, tbl, 8, false)
	be := make([]bool, 8)
	for i := range be {
		be[i] = i%2 == 1
	}
	d.SetBestEffort(be)
	return func(i int) { d.PickNext(cpu, half+int64(i)*7919%half) }
}

func BenchmarkDispatcherHotPath(b *testing.B) {
	pick := hotPathRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick(i)
	}
}

func BenchmarkTenancyPick(b *testing.B) {
	pick := tenancyRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pick(i)
	}
}

// TestPickAllocatesNothing: neither level of PickNext may touch the
// heap — the class check must stay allocation-free like the class-blind
// pick it extends.
func TestPickAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		rig  func(testing.TB) func(int)
	}{
		{"first-level", hotPathRig},
		{"tenancy", tenancyRig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pick := tc.rig(t)
			i := 0
			if avg := testing.AllocsPerRun(2000, func() { pick(i); i++ }); avg != 0 {
				t.Errorf("PickNext allocates %v objects per call, want 0", avg)
			}
		})
	}
}

func appendAlloc(cores []table.CoreTable, core int, s, e int64, v int) []table.CoreTable {
	for len(cores) <= core {
		cores = append(cores, table.CoreTable{Core: len(cores)})
	}
	cores[core].Allocs = append(cores[core].Allocs, table.Alloc{Start: s, End: e, VCPU: v})
	return cores
}
