package table

import (
	"math/rand"
	"sort"
	"testing"

	"tableau/internal/israce"
)

func mkTable(t *testing.T, tlen int64, allocsPerCore [][]Alloc, nvcpus int) *Table {
	t.Helper()
	tbl := &Table{Len: tlen}
	for i, as := range allocsPerCore {
		tbl.Cores = append(tbl.Cores, CoreTable{Core: i, Allocs: as})
	}
	for i := 0; i < nvcpus; i++ {
		tbl.VCPUs = append(tbl.VCPUs, VCPUInfo{Name: "v" + string(rune('0'+i)), HomeCore: 0})
	}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := tbl.BuildSlices(0); err != nil {
		t.Fatalf("BuildSlices: %v", err)
	}
	return tbl
}

func TestValidateRejectsBadTables(t *testing.T) {
	cases := []struct {
		name string
		tbl  Table
	}{
		{"zero length", Table{Len: 0}},
		{"out of bounds", Table{Len: 100, VCPUs: make([]VCPUInfo, 1),
			Cores: []CoreTable{{Allocs: []Alloc{{50, 150, 0}}}}}},
		{"overlap", Table{Len: 100, VCPUs: make([]VCPUInfo, 1),
			Cores: []CoreTable{{Allocs: []Alloc{{0, 60, 0}, {50, 80, 0}}}}}},
		{"unknown vcpu", Table{Len: 100, Cores: []CoreTable{{Allocs: []Alloc{{0, 10, 3}}}}}},
		{"empty alloc", Table{Len: 100, VCPUs: make([]VCPUInfo, 1),
			Cores: []CoreTable{{Allocs: []Alloc{{10, 10, 0}}}}}},
		{"parallel split", Table{Len: 100, VCPUs: make([]VCPUInfo, 1), Cores: []CoreTable{
			{Core: 0, Allocs: []Alloc{{0, 50, 0}}},
			{Core: 1, Allocs: []Alloc{{40, 90, 0}}},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.tbl.Validate(); err == nil {
				t.Error("Validate accepted a bad table")
			}
		})
	}
}

func TestValidateAcceptsSplitWithoutOverlap(t *testing.T) {
	tbl := Table{Len: 100, VCPUs: make([]VCPUInfo, 1), Cores: []CoreTable{
		{Core: 0, Allocs: []Alloc{{0, 40, 0}}},
		{Core: 1, Allocs: []Alloc{{40, 90, 0}}},
	}}
	if err := tbl.Validate(); err != nil {
		t.Errorf("back-to-back split allocations must be legal: %v", err)
	}
}

func TestLookupBasic(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{
		{{0, 30, 0}, {30, 60, 1}, {80, 95, 0}},
	}, 2)
	cases := []struct {
		now      int64
		vcpu     int
		reserved bool
		until    int64
	}{
		{0, 0, true, 30},
		{29, 0, true, 30},
		{30, 1, true, 60},
		{59, 1, true, 60},
		{60, Idle, false, 80}, // idle gap
		{79, Idle, false, 80},
		{80, 0, true, 95},
		{95, Idle, false, 100}, // idle tail
		{99, Idle, false, 100},
		// Second cycle: absolute times continue.
		{100, 0, true, 130},
		{160, Idle, false, 180},
		{199, Idle, false, 200},
	}
	for _, c := range cases {
		v, r, u := tbl.Lookup(0, c.now)
		if v != c.vcpu || r != c.reserved || u != c.until {
			t.Errorf("Lookup(0, %d) = (%d, %v, %d), want (%d, %v, %d)",
				c.now, v, r, u, c.vcpu, c.reserved, c.until)
		}
	}
}

func TestLookupEmptyCore(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{{}}, 0)
	v, r, u := tbl.Lookup(0, 250)
	if v != Idle || r || u != 300 {
		t.Errorf("Lookup on empty core = (%d, %v, %d), want (Idle, false, 300)", v, r, u)
	}
}

// naiveLookup is the O(n) reference the slice-table lookup must match.
func naiveLookup(tbl *Table, core int, now int64) (int, bool, int64) {
	pos := now % tbl.Len
	cycleStart := now - pos
	for _, a := range tbl.Cores[core].Allocs {
		if pos < a.Start {
			return Idle, false, cycleStart + a.Start
		}
		if pos < a.End {
			return a.VCPU, a.VCPU != Idle, cycleStart + a.End
		}
	}
	return Idle, false, cycleStart + tbl.Len
}

// Property: slice-table lookup agrees with a naive scan at every ns of
// randomly generated tables.
func TestLookupMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tlen := int64(200 + rng.Intn(800))
		var allocs []Alloc
		pos := int64(0)
		for pos < tlen-20 {
			gap := int64(rng.Intn(30))
			l := int64(5 + rng.Intn(40))
			if pos+gap+l > tlen {
				break
			}
			allocs = append(allocs, Alloc{pos + gap, pos + gap + l, rng.Intn(3)})
			pos += gap + l
		}
		tbl := &Table{Len: tlen, VCPUs: make([]VCPUInfo, 3),
			Cores: []CoreTable{{Core: 0, Allocs: allocs}}}
		// Parallel-split validation may reject random vcpu collisions on
		// one core only if overlapping; ours are sequential, so fine.
		if err := tbl.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tbl.BuildSlices(0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for now := int64(0); now < 2*tlen; now++ {
			v1, r1, u1 := tbl.Lookup(0, now)
			v2, r2, u2 := naiveLookup(tbl, 0, now)
			if v1 != v2 || r1 != r2 || u1 != u2 {
				t.Fatalf("trial %d: Lookup(0,%d) = (%d,%v,%d), naive = (%d,%v,%d); allocs=%v",
					trial, now, v1, r1, u1, v2, r2, u2, allocs)
			}
		}
	}
}

func TestBuildSlicesGuard(t *testing.T) {
	// A 1-ns allocation in a long table would explode the slice count.
	tbl := &Table{Len: 1 << 30, VCPUs: make([]VCPUInfo, 1),
		Cores: []CoreTable{{Allocs: []Alloc{{0, 1, 0}}}}}
	if err := tbl.BuildSlices(1000); err == nil {
		t.Error("expected slice-count guard to trip")
	}
}

func TestCheckGuarantees(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{
		{{0, 25, 0}, {50, 75, 0}},
	}, 1)
	ok := []Guarantee{{VCPU: 0, Service: 25, WindowLen: 50, MaxBlackout: 30}}
	if err := tbl.Check(ok); err != nil {
		t.Errorf("valid guarantee rejected: %v", err)
	}
	tooMuch := []Guarantee{{VCPU: 0, Service: 26, WindowLen: 50}}
	if err := tbl.Check(tooMuch); err == nil {
		t.Error("service violation not detected")
	}
	tightBlackout := []Guarantee{{VCPU: 0, MaxBlackout: 20}}
	if err := tbl.Check(tightBlackout); err == nil {
		t.Error("blackout violation not detected: gap [75,100)+[0,0) = 25")
	}
	badWindow := []Guarantee{{VCPU: 0, Service: 1, WindowLen: 33}}
	if err := tbl.Check(badWindow); err == nil {
		t.Error("non-dividing window not detected")
	}
}

func TestCheckBlackoutAcrossWrap(t *testing.T) {
	// Service only at the start of the table: wrap gap is len-25.
	tbl := mkTable(t, 100, [][]Alloc{{{0, 25, 0}}}, 1)
	if err := tbl.Check([]Guarantee{{VCPU: 0, MaxBlackout: 75}}); err != nil {
		t.Errorf("blackout exactly at bound rejected: %v", err)
	}
	if err := tbl.Check([]Guarantee{{VCPU: 0, MaxBlackout: 74}}); err == nil {
		t.Error("wrap-around blackout of 75 not detected")
	}
}

func TestCheckMissingVCPU(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{{{0, 25, 0}}}, 2)
	if err := tbl.Check([]Guarantee{{VCPU: 1, MaxBlackout: 50}}); err == nil {
		t.Error("vcpu with no reservations must violate blackout guarantee")
	}
}

func TestVCPUSlotsAndService(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{
		{{0, 20, 0}, {40, 60, 1}},
		{{20, 35, 0}},
	}, 2)
	slots := tbl.VCPUSlots(0)
	if len(slots) != 2 || slots[0].Start != 0 || slots[1].Start != 20 {
		t.Errorf("VCPUSlots(0) = %v", slots)
	}
	if !sort.SliceIsSorted(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start }) {
		t.Error("slots not sorted")
	}
	if got := tbl.ServiceOf(0); got != 35 {
		t.Errorf("ServiceOf(0) = %d, want 35", got)
	}
	if got := tbl.CoreOfVCPUAt(0, 25); got != 1 {
		t.Errorf("CoreOfVCPUAt(0, 25) = %d, want 1", got)
	}
	if got := tbl.CoreOfVCPUAt(0, 70); got != -1 {
		t.Errorf("CoreOfVCPUAt(0, 70) = %d, want -1", got)
	}
}

func TestSliceCount(t *testing.T) {
	tbl := mkTable(t, 100, [][]Alloc{{{0, 10, 0}}}, 1)
	if got := tbl.SliceCount(); got != 10 {
		t.Errorf("SliceCount = %d, want 10", got)
	}
}

// TestCheckAndValidateAllocateNothing pins the checkers' pooled scratch:
// on a valid small table — eight cores, eight vCPUs, a guarantee each —
// neither allocates, so the planner's per-plan verification costs no
// garbage. (Validate still builds its span map for a table with split
// vCPUs; Check sorts a split vCPU's bucket in place and stays at zero.)
func TestCheckAndValidateAllocateNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const tlen = 1000
	build := func(vcpus int) (*Table, []Guarantee) {
		var cores [][]Alloc
		for c := 0; c < 8; c++ {
			var as []Alloc
			for w := int64(0); w < tlen; w += 100 {
				// With seven vCPUs, core 7 serves vCPU 0 in the half of each
				// window core 0 leaves it idle: a split.
				off := int64(c/vcpus) * 50
				as = append(as, Alloc{w + off, w + off + 40, c % vcpus})
			}
			cores = append(cores, as)
		}
		var gs []Guarantee
		for v := 0; v < vcpus; v++ {
			gs = append(gs, Guarantee{VCPU: v, Service: 40, WindowLen: 100, MaxBlackout: 100})
		}
		tbl := mkTable(t, tlen, cores, vcpus)
		if err := tbl.Check(gs); err != nil {
			t.Fatal(err)
		}
		return tbl, gs
	}
	tbl, gs := build(8)
	if allocs := testing.AllocsPerRun(200, func() { _ = tbl.Validate() }); allocs != 0 {
		t.Errorf("Validate allocates %.0f objects on a valid table, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = tbl.Check(gs) }); allocs != 0 {
		t.Errorf("Check allocates %.0f objects on a valid table, want 0", allocs)
	}
	split, gs := build(7)
	if allocs := testing.AllocsPerRun(200, func() { _ = split.Check(gs) }); allocs != 0 {
		t.Errorf("Check allocates %.0f objects on a valid table with a split vCPU, want 0", allocs)
	}
}
