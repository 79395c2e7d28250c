package verify

import (
	"fmt"
	"math/big"

	"tableau/internal/core"
	"tableau/internal/faults"
	"tableau/internal/trace"
)

// ClassContinuity is the guarantee-continuity oracle: across an
// arrival/departure storm, every VM admitted in consecutive epochs
// keeps its guarantee, and its observed no-service gaps never exceed
// the analytical blackout bound of the epochs the gap touches.
const ClassContinuity = "continuity"

// enactedEpoch is one epoch the dispatcher actually enacted, with its
// observed adoption window [firstAdopt, lastAdopt] (per-core adoption
// is boundary-synchronized, so cores adopt at different instants). The
// initial epoch is enacted from t=0 with an empty window.
type enactedEpoch struct {
	ep                    core.Epoch
	firstAdopt, lastAdopt int64
	blackout              map[int]int64 // slot -> MaxBlackout
}

// CheckContinuity replays the Controller's epoch history against the
// trace. Two families of findings:
//
//   - retention: a slot holding a guarantee in enacted epoch k must
//     hold one in enacted epoch k+1 unless a committed OpDeactivate for
//     it exists in a transition with version in (v_k, v_{k+1}]. This is
//     the check that catches silent eviction: a victim that loses its
//     guarantee with no deactivation on record.
//   - shed order: a committed shed deactivation (Op.Shed) may take a
//     latency-sensitive slot only when no best-effort slot remains
//     active. This is the check that convicts the shed-order mutant
//     (core's TestMutationSmokeShedLSFirst): its sheds are committed and
//     journaled — retention cannot object — but they take LS guarantees
//     while BE guests still hold the slack.
//   - gaps: for each Hog slot, every observed no-service gap [g0, g1)
//     must satisfy g1-g0 <= sum of the slot's blackout bounds over the
//     epochs the gap touches. A gap inside one fully-adopted epoch gets
//     exactly that epoch's bound; a gap spanning an adoption window
//     gets B_old + B_new, which is sound because the switch happens at
//     an old-cycle boundary and the new table starts at an arbitrary
//     phase. Gaps touching an epoch in which the slot holds no
//     guarantee (departed, or an arrival the host refused) are skipped:
//     the slot was legitimately dark.
//
// Gap checks are skipped for scenarios with service-perturbing faults
// (stalls, timer drift, IPI loss/delay steal service without breaking
// continuity); a fail-stop instead masks the detection-and-recovery
// window [failAt, last adoption of the emergency epoch].
func CheckContinuity(a *Artifacts) []Violation {
	if a.Controller == nil {
		return nil
	}
	hist := a.Controller.History()
	if len(hist) == 0 {
		return nil
	}
	enacted := enactedEpochs(a, hist)

	var out []Violation
	out = append(out, checkEpochFidelity(a, hist)...)
	out = append(out, checkShedOrder(a)...)
	out = append(out, checkRetention(a, enacted)...)
	out = append(out, checkContinuityGaps(a, enacted)...)
	return out
}

// checkShedOrder replays the committed ops and holds the controller to
// the class-aware shed policy: under overload, best-effort guests are
// shed before any latency-sensitive guarantee is touched. Classes come
// from the scenario's ground truth, never the controller's self-report,
// so an inverted order is convicted even though its deactivations are
// properly committed and journaled.
func checkShedOrder(a *Artifacts) []Violation {
	sc := a.Scenario
	active := make([]bool, sc.NumSlots())
	for i := range sc.VMs {
		active[i] = true
	}
	var out []Violation
	for _, ct := range a.Transitions {
		if ct.Tr.Version == 0 {
			continue // rolled back or all-rejected: population unchanged
		}
		for _, op := range ct.Tr.Committed {
			switch op.Kind {
			case core.OpActivate:
				active[op.Slot] = true
			case core.OpDeactivate:
				if op.Shed && sc.VM(op.Slot).Class == core.LS {
					for slot := range active {
						if active[slot] && slot != op.Slot && sc.VM(slot).Class == core.BE {
							out = append(out, Violation{ClassContinuity, op.Slot, fmt.Sprintf(
								"transition %d sheds LS slot %d while BE slot %d is still active — inverted shed order",
								ct.Tr.Version, op.Slot, slot)})
							break
						}
					}
				}
				active[op.Slot] = false
			}
		}
	}
	return out
}

// checkEpochFidelity replays the committed control-plane ops against the
// scenario's initial population to reconstruct what each epoch promised,
// then demands the epoch's guarantees honour it: every expected-active
// slot holds a guarantee whose blackout bound is within the slot's
// current latency goal and whose service fraction covers the slot's
// current reservation, and no inactive slot holds one. Retention alone
// cannot catch a planner that keeps serving a reconfigured VM its stale
// pre-reconfiguration reservation (the stale-slice mutant,
// TestMutationSmokeStaleSliceReuse): the stale epoch is self-consistent
// — table, guarantees, and trace all agree — and only disagrees with
// the obligations the committed ops created.
func checkEpochFidelity(a *Artifacts, hist []core.Epoch) []Violation {
	sc := a.Scenario
	type obligation struct {
		active bool
		util   core.Util
		goal   int64
	}
	exp := make([]obligation, sc.NumSlots())
	for slot := range exp {
		vm := sc.VM(slot)
		exp[slot] = obligation{active: slot < len(sc.VMs), util: vm.Util, goal: vm.LatencyGoal}
	}

	var out []Violation
	ti := 0
	for _, ep := range hist {
		// Fold in every committed transition up to this epoch — including
		// ones whose own epochs were later withdrawn by an emergency
		// rollback: their population changes persist (only the staged
		// table was revoked), so later epochs still answer for them.
		for ti < len(a.Transitions) {
			tr := a.Transitions[ti].Tr
			if tr.Version == 0 {
				ti++ // rolled back or all-rejected: population unchanged
				continue
			}
			if tr.Version > ep.Version {
				break
			}
			for _, op := range tr.Committed {
				switch op.Kind {
				case core.OpActivate:
					exp[op.Slot].active = true
				case core.OpDeactivate:
					exp[op.Slot].active = false
				case core.OpReconfigure:
					exp[op.Slot].util = op.Util
					exp[op.Slot].goal = op.LatencyGoal
				}
			}
			ti++
		}

		held := make(map[int]int, len(ep.Guarantees))
		for i := range ep.Guarantees {
			held[ep.Guarantees[i].VCPU] = i
		}
		for slot, ob := range exp {
			gi, ok := held[slot]
			if !ob.active {
				if ok {
					out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
						"epoch %d carries a guarantee for a slot deactivated by its committed ops", ep.Version)})
				}
				continue
			}
			if !ok {
				out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
					"active slot holds no guarantee in epoch %d — arrival silently dropped?", ep.Version)})
				continue
			}
			g := &ep.Guarantees[gi]
			if g.MaxBlackout > ob.goal {
				out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
					"epoch %d blackout bound %d ns exceeds the committed latency goal %d ns — stale reservation?",
					ep.Version, g.MaxBlackout, ob.goal)})
			}
			got := new(big.Rat).SetFrac64(g.Service, g.WindowLen)
			want := new(big.Rat).SetFrac64(ob.util.Num, ob.util.Den)
			if got.Cmp(want) < 0 {
				out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
					"epoch %d serves %d/%d ns but the committed reservation is %d/%d — stale reservation?",
					ep.Version, g.Service, g.WindowLen, ob.util.Num, ob.util.Den)})
			}
		}
	}
	return out
}

// enactedEpochs filters the history down to epochs the trace shows were
// adopted, annotated with their adoption windows. Epochs committed but
// never adopted inside the horizon (or overwritten while still staged)
// are excluded — the dispatcher never enacted them.
func enactedEpochs(a *Artifacts, hist []core.Epoch) []enactedEpoch {
	type window struct{ first, last int64 }
	adopt := make(map[uint64]window)
	for i := range a.Records {
		r := &a.Records[i]
		if r.Type != trace.EvTableSwitch {
			continue
		}
		gen := uint64(r.Arg0)
		w, ok := adopt[gen]
		if !ok {
			w = window{r.Time, r.Time}
		}
		if r.Time < w.first {
			w.first = r.Time
		}
		if r.Time > w.last {
			w.last = r.Time
		}
		adopt[gen] = w
	}

	blackoutOf := func(ep core.Epoch) map[int]int64 {
		m := make(map[int]int64, len(ep.Guarantees))
		for _, g := range ep.Guarantees {
			m[g.VCPU] = g.MaxBlackout
		}
		return m
	}

	// The initial epoch is enacted from t=0: the machine starts on it,
	// so there are no switch records to find.
	enacted := []enactedEpoch{{ep: hist[0], blackout: blackoutOf(hist[0])}}
	for _, ep := range hist[1:] {
		if w, ok := adopt[ep.Version]; ok {
			enacted = append(enacted, enactedEpoch{ep, w.first, w.last, blackoutOf(ep)})
		}
	}
	return enacted
}

// checkRetention verifies no slot's guarantee vanishes between
// consecutive enacted epochs without a committed deactivation on
// record. The version range (v_k, v_{k+1}] covers deactivations
// committed in intermediate epochs that were never adopted.
func checkRetention(a *Artifacts, enacted []enactedEpoch) []Violation {
	var out []Violation
	for k := 0; k+1 < len(enacted); k++ {
		cur, next := &enacted[k], &enacted[k+1]
		deact := make(map[int]bool)
		for _, ct := range a.Transitions {
			if ct.Tr.Version <= cur.ep.Version || ct.Tr.Version > next.ep.Version {
				continue
			}
			for _, op := range ct.Tr.Committed {
				if op.Kind == core.OpDeactivate {
					deact[op.Slot] = true
				}
			}
		}
		for slot := range cur.blackout {
			if _, held := next.blackout[slot]; held || deact[slot] {
				continue
			}
			out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
				"guarantee held in epoch %d but gone in epoch %d with no deactivation on record — silently evicted?",
				cur.ep.Version, next.ep.Version)})
		}
	}
	return out
}

// checkContinuityGaps bounds every Hog slot's no-service gaps by the
// summed blackout bounds of the epochs each gap touches.
func checkContinuityGaps(a *Artifacts, enacted []enactedEpoch) []Violation {
	sc := a.Scenario
	for _, kind := range []string{
		faults.KindPCPUStall, faults.KindTimerDrift,
		faults.KindIPIDrop, faults.KindIPIDelay,
	} {
		if sc.HasFaultKind(kind) {
			return nil
		}
	}

	// A fail-stop blacks out the dead core's VMs until the emergency
	// epoch is adopted everywhere; mask that window. If recovery never
	// completed inside the horizon (or rolled back), everything after
	// the failure is masked.
	failAt, recoveryEnd := int64(-1), int64(-1)
	if sc.Faults != nil {
		for _, e := range sc.Faults.Events {
			if e.Kind == faults.KindPCPUFailStop && (failAt < 0 || e.At < failAt) {
				failAt = e.At
			}
		}
	}
	if failAt >= 0 {
		for _, ct := range a.Transitions {
			if !ct.Tr.Emergency || ct.Tr.Version == 0 {
				continue
			}
			for i := range enacted {
				if enacted[i].ep.Version == ct.Tr.Version && enacted[i].lastAdopt > recoveryEnd {
					recoveryEnd = enacted[i].lastAdopt
				}
			}
		}
	}

	var out []Violation
	runs := runningIntervals(a.Records, len(a.M.VCPUs), Horizon)
	for slot := 0; slot < sc.NumSlots(); slot++ {
		if sc.VM(slot).Workload != Hog {
			continue
		}
		for _, g := range serviceGaps(runs[slot]) {
			if failAt >= 0 && g.end > failAt && (recoveryEnd < 0 || g.start <= recoveryEnd) {
				continue
			}
			lo, hi := 0, -1
			for i := range enacted {
				if enacted[i].lastAdopt <= g.start {
					lo = i
				}
				if enacted[i].firstAdopt < g.end {
					hi = i
				}
			}
			allowed, covered := int64(0), true
			for i := lo; i <= hi; i++ {
				b, held := enacted[i].blackout[slot]
				if !held {
					covered = false
					break
				}
				allowed += b
			}
			if !covered {
				continue // legitimately dark for part of the gap
			}
			if g.end-g.start > allowed {
				out = append(out, Violation{ClassContinuity, slot, fmt.Sprintf(
					"gap [%d,%d) of %d ns exceeds summed blackout bound %d ns across epochs %d..%d",
					g.start, g.end, g.end-g.start, allowed, enacted[lo].ep.Version, enacted[hi].ep.Version)})
			}
		}
	}
	return out
}

// serviceGaps returns the no-service gaps of one slot over the whole
// horizon, including the leading gap from t=0 and the trailing gap to
// the horizon.
func serviceGaps(ivs []interval) []interval {
	var gaps []interval
	prev := int64(0)
	for _, iv := range ivs {
		if iv.start > prev {
			gaps = append(gaps, interval{prev, iv.start})
		}
		if iv.end > prev {
			prev = iv.end
		}
	}
	if prev < Horizon {
		gaps = append(gaps, interval{prev, Horizon})
	}
	return gaps
}
