package planner

import (
	"fmt"
	"testing"

	"tableau/internal/table"
)

// twoWalkHomeAndSplit computes home cores and split marks as two walks
// over every core of a finished table: a first-seen core per vCPU for
// the split marks, a per-(vCPU, core) service table for the home cores.
// It is the reference for homeAndSplit, which walks once, before
// coalescing, and in the delta form over changed cores only.
func twoWalkHomeAndSplit(tbl *table.Table) (home []int, split []bool) {
	n, nc := len(tbl.VCPUs), len(tbl.Cores)
	coreOf := make([]int, n)
	for v := range coreOf {
		coreOf[v] = -1
	}
	split = make([]bool, n)
	service := make([]int64, n*nc)
	for _, ct := range tbl.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == table.Idle {
				continue
			}
			switch coreOf[a.VCPU] {
			case -1:
				coreOf[a.VCPU] = ct.Core
			case ct.Core:
			default:
				split[a.VCPU] = true
			}
			service[a.VCPU*nc+ct.Core] += a.Len()
		}
	}
	home = make([]int, n)
	for v := range home {
		home[v] = -1
		bestSvc := int64(0)
		for c, s := range service[v*nc : (v+1)*nc] {
			if s > bestSvc {
				home[v], bestSvc = c, s
			}
		}
	}
	return home, split
}

// TestHomeAndSplitMatchTwoWalks: every plan's home cores and split marks
// equal the two-walk reference — the digest wall's inputs, with the
// incremental chains planned in arenas, and a 500-flush walk of the
// dense host, where the delta form walks only the cores not adopted.
func TestHomeAndSplitMatchTwoWalks(t *testing.T) {
	plans, split := 0, 0
	check := func(name string, res *Result) {
		t.Helper()
		if res == nil {
			return
		}
		plans++
		home, sp := twoWalkHomeAndSplit(res.Table)
		for v, vi := range res.Table.VCPUs {
			if vi.HomeCore != home[v] || vi.Split != sp[v] {
				t.Fatalf("%s: vCPU %d has home %d, split %v; the two walks say %d, %v", name, v, vi.HomeCore, vi.Split, home[v], sp[v])
			}
			if vi.Split {
				split++
			}
		}
	}
	eachDigestCase(true, false, func(name string, res *Result, _ error) { check(name, res) })
	g := &gateVerdicts{t: t}
	defer g.install()()
	step := 0
	denseWalk(t, 3, 500, func(res *Result) {
		check(fmt.Sprintf("dense/%d", step), res)
		step++
	})
	t.Logf("%d plans, %d split vCPUs, %d delta-form gates", plans, split, g.gates)
	if split == 0 || g.gates < 400 {
		t.Errorf("the check missed a case: %d split vCPUs, %d delta-form plans", split, g.gates)
	}
}

// TestHomeAndSplitWalksEveryCoreForAStraddler: in the delta form, a dirty
// vCPU that also holds time on an adopted core — a split chain one of
// whose cores took a new VM, or a vCPU whose guarantee alone changed —
// sends the walk over every core; walking the changed core alone would
// unsplit the chain and home both vCPUs wrongly.
func TestHomeAndSplitWalksEveryCoreForAStraddler(t *testing.T) {
	prevCores := func() []table.CoreTable {
		return []table.CoreTable{
			{Core: 0, Allocs: []table.Alloc{{Start: 0, End: 30, VCPU: 0}, {Start: 30, End: 60, VCPU: 1}}},
			{Core: 1, Allocs: []table.Alloc{{Start: 0, End: 40, VCPU: 2}, {Start: 60, End: 80, VCPU: 0}}},
		}
	}
	prev := &table.Table{Len: 100, Cores: prevCores(), VCPUs: []table.VCPUInfo{
		{HomeCore: 0, Split: true}, {HomeCore: 0}, {HomeCore: 1},
	}}
	for _, tc := range []struct {
		name  string
		dirty []bool
	}{
		{"split chain", []bool{true, false, true, true}},
		{"guarantee changed", []bool{false, true, true, true}},
	} {
		cores := prevCores()
		// Core 0 is adopted; core 1 took the new vCPU 3.
		cores[1].Allocs = []table.Alloc{{Start: 0, End: 40, VCPU: 2}, {Start: 40, End: 50, VCPU: 3}, {Start: 60, End: 80, VCPU: 0}}
		tbl := &table.Table{Len: 100, Cores: cores, VCPUs: make([]table.VCPUInfo, 4)}
		for v := range tbl.VCPUs {
			tbl.VCPUs[v].HomeCore = -1
		}
		ws := &workspace{adopted: []bool{true, false}, dirty: tc.dirty}
		homeAndSplit(ws, tbl, prev)
		home, split := twoWalkHomeAndSplit(tbl)
		for v, vi := range tbl.VCPUs {
			if vi.HomeCore != home[v] || vi.Split != split[v] {
				t.Errorf("%s: vCPU %d has home %d, split %v; want %d, %v", tc.name, v, vi.HomeCore, vi.Split, home[v], split[v])
			}
		}
	}
}
