package planner

import (
	"slices"

	"tableau/internal/table"
)

// This file is the planner's final gate: no table leaves planWith that
// has not passed table.Validate and table.Check against its guarantees.
//
// The delta form. A core a plan adopted (synthesizeCores) is the
// previous plan's final schedule for that core, the same allocation
// list, and vCPU ids are stable across plans. When the previous plan is
// one this workspace's Arena planned and verified, a vCPU whose
// allocations lie on adopted cores alone, in both plans, holds exactly
// the allocations it held before; if its guarantee is also the one it
// held before, the previous verdict is its verdict, and re-checking it
// can only repeat that. So the gate re-walks only the cores the plan did
// not adopt, and re-checks in full every vCPU that is new, holds a
// different guarantee, or has time on a core that was not adopted in
// either plan. Any other previous plan — a package-level
// PlanIncremental's, one from a remote planner, one this workspace did
// not verify — gets the full gate, as does every scratch and cache plan.

// onFinalGate, when set (tests only), sees every delta-form gate as it
// runs: the table, its full guarantees, the cores known valid and the
// guarantees the delta form re-checks.
var onFinalGate func(tbl *table.Table, gs []table.Guarantee, known []bool, gated []table.Guarantee)

// finalGate picks what the gate covers: known marks the cores Validate
// need not re-walk (nil: every core), gated (ws.dirty's) what Check
// verifies. It reads only which vCPUs the cores not adopted hold.
func finalGate(ws *workspace, tbl *table.Table, gs []table.Guarantee, pin *pinning) (known []bool, gated []table.Guarantee) {
	if pin == nil || !pin.trusted || !slices.Contains(ws.adopted, true) {
		return nil, gs
	}
	prev := pin.prevTable
	if prev.Len != tbl.Len || len(prev.Cores) != len(tbl.Cores) || len(ws.adopted) != len(tbl.Cores) {
		return nil, gs
	}
	n := len(tbl.VCPUs)
	ws.gAt = filled(ws.gAt, len(prev.VCPUs), -1)
	for k, g := range pin.prevGs {
		if g.VCPU >= 0 && g.VCPU < len(ws.gAt) {
			ws.gAt[g.VCPU] = int32(k)
		}
	}
	// Dirty unless the vCPU held the same guarantee before ...
	ws.dirty = filled(ws.dirty, n, true)
	dirty := ws.dirty
	for _, g := range gs {
		if g.VCPU < 0 || g.VCPU >= n {
			return nil, gs
		}
		if g.VCPU < len(ws.gAt) && ws.gAt[g.VCPU] >= 0 {
			dirty[g.VCPU] = pin.prevGs[ws.gAt[g.VCPU]] != g
		}
	}
	// ... and has no time on a core either plan did not adopt.
	for ci, adopted := range ws.adopted {
		if adopted {
			continue
		}
		for _, a := range tbl.Cores[ci].Allocs {
			if a.VCPU >= 0 && a.VCPU < n {
				dirty[a.VCPU] = true
			}
		}
		for _, a := range prev.Cores[ci].Allocs {
			if a.VCPU >= 0 && a.VCPU < n {
				dirty[a.VCPU] = true
			}
		}
	}
	ws.gated = ws.gated[:0]
	for _, g := range gs {
		if dirty[g.VCPU] {
			ws.gated = append(ws.gated, g)
		}
	}
	return ws.adopted, ws.gated
}

// validate is the gate's first half, run before slice indices are built.
func (ws *workspace) validate(tbl *table.Table, known []bool) error {
	if ws.check == nil {
		return tbl.Validate()
	}
	return ws.check.ValidateDelta(tbl, known)
}

// checkGuarantees is the gate's second half.
func (ws *workspace) checkGuarantees(tbl *table.Table, gs []table.Guarantee) error {
	if ws.check == nil {
		return tbl.Check(gs)
	}
	return ws.check.Check(tbl, gs)
}
