package core

import (
	"bytes"
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tableau/internal/journal"
	"tableau/internal/periodic"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// freshRemap is the remap oracle: the plan's table placed on the
// physical cores with every allocation copied and every VCPUs entry
// rebuilt field by field from the slots, nothing shared.
func freshRemap(s *System, in *table.Table) *table.Table {
	online := s.onlineCoresLocked()
	out := &table.Table{Len: in.Len, VCPUs: make([]table.VCPUInfo, len(s.slots)), Cores: make([]table.CoreTable, s.cores)}
	for id, sl := range s.slots {
		out.VCPUs[id] = table.VCPUInfo{Name: sl.cfg.Name, Capped: sl.cfg.Capped || !sl.active, HomeCore: -1}
		if !sl.active {
			continue
		}
		vi := in.VCPUs[id]
		out.VCPUs[id].Capped = vi.Capped
		if vi.HomeCore >= 0 {
			out.VCPUs[id].HomeCore = online[vi.HomeCore]
		}
		out.VCPUs[id].Split = vi.Split
		out.VCPUs[id].UtilizationPPM = vi.UtilizationPPM
		out.VCPUs[id].LatencyGoal = vi.LatencyGoal
	}
	for c := range out.Cores {
		out.Cores[c].Core = c
	}
	for _, src := range in.Cores {
		out.Cores[online[src.Core]].Allocs = slices.Clone(src.Allocs)
	}
	return out
}

// freshRemapMatches checks the committed epoch against a fresh remap of
// its plan (freshRemap): the same wire bytes, which also must be a full
// encode's and a segment-reusing one's. The plan itself, however its
// gate ran, must pass the full one. It returns how many cores the epoch
// shares with prevEp.
func freshRemapMatches(t *testing.T, s *System, prevEp, ep Epoch) int {
	t.Helper()
	s.mu.Lock()
	res := s.inc.prev.Res
	fresh := freshRemap(s, res.Table)
	s.mu.Unlock()
	if err := cmp.Or(res.Table.Validate(), res.Table.Check(res.Guarantees)); err != nil {
		t.Errorf("epoch %d's plan fails the full gate: %v", ep.Version, err)
	}
	fresh.Generation = ep.Version
	want, err := fresh.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ep.Table.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The encode a journal would make copies the carried cores' segments
	// out of the previous epoch's bytes.
	reused, err := ep.Table.AppendEncodedReusingCompact(nil, prevEp.Table, epochBytes(t, prevEp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reused, want) || !bytes.Equal(full, want) {
		t.Errorf("epoch %d differs from a fresh remap of its plan", ep.Version)
	}
	shared := 0
	for c := range ep.Table.Cores {
		if sameBacking(ep.Table.Cores[c].Allocs, prevEp.Table.Cores[c].Allocs) {
			shared++
		}
	}
	return shared
}

// sameBacking reports whether a and b are one non-empty list.
func sameBacking(a, b []table.Alloc) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestCarriedCoresEqualFreshRemap walks the dense host through seeded
// churn — three slots per flush, the 168-192 band, a
// reconfiguration every seventh flush, a core failure at flush 20 — and
// demands that every epoch, with the cores it carried over from the
// previous one, is exactly a fresh remap of its plan. The failure moves
// the online mapping, so that flush carries nothing.
func TestCarriedCoresEqualFreshRemap(t *testing.T) {
	s, ctrl := stormRig(t, true)
	rng := rand.New(rand.NewSource(5))
	on, off := make([]int, 192), []int(nil)
	for i := range on {
		on[i] = i
	}
	carried := 0
	prevEp := ctrl.Epoch()
	for i := 0; i < 40; i++ {
		// Activate with the share of the 24 places above the floor that are
		// empty, as the benchmark's walk does.
		var ops []Op
		for k := 0; k < 3; k++ {
			if len(off) > 0 && rng.Intn(24) < len(off) {
				slot := off[rng.Intn(len(off))]
				ops = append(ops, Op{Kind: OpActivate, Slot: slot})
				on, off = append(on, slot), slices.DeleteFunc(off, func(v int) bool { return v == slot })
			} else {
				slot := on[rng.Intn(len(on))]
				ops = append(ops, Op{Kind: OpDeactivate, Slot: slot})
				on, off = slices.DeleteFunc(on, func(v int) bool { return v == slot }), append(off, slot)
			}
		}
		if i%7 == 6 {
			ops = append(ops, Op{Kind: OpReconfigure, Slot: rng.Intn(192), Util: Util{Num: 1, Den: 32}, LatencyGoal: 10_000_000})
		}
		if i == 20 {
			ops = append(ops, Op{Kind: OpFailCore, Core: 3})
		}
		ctrl.SubmitBatch(ops)
		tr, err := ctrl.Flush()
		if err != nil || tr.Version == 0 || len(tr.Rejected) > 0 {
			t.Fatalf("flush %d (%v) did not commit whole: %+v, %v", i, ops, tr, err)
		}
		ep := ctrl.Epoch()
		shared := freshRemapMatches(t, s, prevEp, ep)
		if i == 20 && shared > 0 {
			t.Errorf("flush %d failed a core and still carried %d cores over", i, shared)
		}
		carried += shared
		prevEp = ep
	}
	t.Logf("%d cores carried over in 40 flushes", carried)
	if carried < 40*8 {
		t.Errorf("%d cores carried over in 40 flushes of a 16-core host", carried)
	}
}

// TestRemotePlanOrFailedRemapCarriesNothingStale: a local flush carries
// cores over from the remap of the plan the next one diffs against, and
// from nothing else. A remote plan leaves no remap to carry from, and a
// plan whose remap fails is not the next plan's predecessor.
func TestRemotePlanOrFailedRemapCarriesNothingStale(t *testing.T) {
	s, ctrl := stormRig(t, true)
	flush := func(ops ...Op) (Epoch, error) {
		t.Helper()
		ctrl.SubmitBatch(ops)
		tr, err := ctrl.Flush()
		if err == nil && tr.Version == 0 {
			t.Fatalf("%v did not commit: %+v", ops, tr)
		}
		return ctrl.Epoch(), err
	}
	first := ctrl.Epoch()
	orphan, _ := flush(Op{Kind: OpDeactivate, Slot: 189}, Op{Kind: OpDeactivate, Slot: 190})
	if freshRemapMatches(t, s, first, orphan) == 0 {
		t.Fatal("a local flush carried no core over")
	}

	// A scratch planner as the remote: its tables place VMs unlike the
	// incremental history the orphan belongs to.
	ctrl.PlanVia = func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		return planner.Plan(specs, opts)
	}
	remote, _ := flush(Op{Kind: OpActivate, Slot: 189})
	ctrl.PlanVia = nil
	ep, _ := flush(Op{Kind: OpActivate, Slot: 190})
	freshRemapMatches(t, s, remote, ep)
	for c := range ep.Table.Cores {
		if got, was := ep.Table.Cores[c].Allocs, orphan.Table.Cores[c].Allocs; len(got) > 0 && len(was) > 0 && &got[0] == &was[0] {
			t.Errorf("core %d was carried over from the epoch before the remote plan", c)
		}
	}

	// A remote plan whose table cannot be remapped rolls the batch back
	// and is not what the next plan diffs against.
	var rejected *planner.Result
	ctrl.PlanVia = func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		res, err := planner.Plan(specs, opts)
		if err != nil {
			return nil, err
		}
		res.Table.Cores[0].Allocs[0].End = res.Table.Len + 1
		rejected = res
		return res, nil
	}
	if _, err := flush(Op{Kind: OpDeactivate, Slot: 191}); err == nil {
		t.Fatal("a table that fails validation was remapped")
	}
	if s.inc.prev.Res == rejected {
		t.Error("the plan whose remap failed became the next plan's predecessor")
	}
	ctrl.PlanVia = nil
	last, _ := flush(Op{Kind: OpDeactivate, Slot: 188})
	if freshRemapMatches(t, s, ep, last) == 0 {
		t.Error("the flush after a failed remote remap carried no core over")
	}
}

// TestCarriedCoresFollowAMovedName: the planner names VMs by slot, so
// a guest that leaves one slot while a twin of the same name and
// reservation arrives in another is a departure and an arrival. The
// twin's slot gets a schedule of its own, the old slot none, and the
// epoch is still exactly a fresh remap of its plan — with the cores
// neither slot touched carried over.
func TestCarriedCoresFollowAMovedName(t *testing.T) {
	s, ctrl := stormRig(t, true)
	twin, err := s.AddVM(s.Config(7))
	if err != nil {
		t.Fatal(err)
	}
	s.slots[twin].active = false
	prevEp := ctrl.Epoch()
	ctrl.SubmitBatch([]Op{{Kind: OpDeactivate, Slot: 7}, {Kind: OpActivate, Slot: twin}, {Kind: OpDeactivate, Slot: 100}})
	if tr, err := ctrl.Flush(); err != nil || tr.Version == 0 {
		t.Fatalf("the move did not commit: %+v, %v", tr, err)
	}
	ep := ctrl.Epoch()
	if freshRemapMatches(t, s, prevEp, ep) == 0 {
		t.Fatal("the move carried no core over: it exercises nothing")
	}
	for _, ct := range ep.Table.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == 7 {
				t.Fatalf("core %d still gives time to the slot the guest left", ct.Core)
			}
		}
	}
	if ep.Table.VCPUs[twin].HomeCore < 0 {
		t.Error("the twin's slot has no home core")
	}
}

// TestDenseIncrementalFlushAllocationCeiling: a warm flush of the
// unjournaled dense host — three slots change state, one incremental
// plan, the placement on physical cores — makes what the epoch and the
// plan own and little else: the plan's Result (its table header,
// guarantees, tasks, one allocation backing for the cores it did not
// adopt), the slot-sized VCPUs of the placed table, and the transition.
// The planner's arena and the table checker's scratch live in the
// System; no slice index is built and no bytes are encoded.
//
// The bytes are measured on the benchmark's random walk (denseOps): a
// departure anywhere in the slot order leaves every other vCPU's id as
// it was, so an adopted core is the previous plan's allocation list and
// the bytes follow the cores a batch changed, not the table. The object
// count is measured on toggles of three resident slots, whose per-core
// simulations the slice memo serves after the first round: a random walk
// keeps minting task sets, and each miss simulates afresh.
func TestDenseIncrementalFlushAllocationCeiling(t *testing.T) {
	_, ctrl := stormRig(t, true)
	rng := rand.New(rand.NewSource(3))
	on, off := make([]int, 192), []int(nil)
	for i := range on {
		on[i] = i
	}
	flush := func(ops []Op) {
		ctrl.SubmitBatch(ops)
		if tr, err := ctrl.Flush(); err != nil || tr.Version == 0 || len(tr.Rejected) > 0 {
			t.Fatalf("%v did not commit whole: %+v, %v", ops, tr, err)
		}
	}
	for k := 0; k < 40; k++ {
		flush(denseOps(rng, &on, &off))
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		flush(denseOps(rng, &on, &off))
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; kb > 150 {
		t.Errorf("a warm dense incremental flush allocates %.1f KB, ceiling 150", kb)
	}

	// Toggle three slots the walk left resident.
	tail := on[len(on)-3:]
	batches := [][]Op{
		{{Kind: OpDeactivate, Slot: tail[0]}, {Kind: OpDeactivate, Slot: tail[1]}, {Kind: OpDeactivate, Slot: tail[2]}},
		{{Kind: OpActivate, Slot: tail[0]}, {Kind: OpActivate, Slot: tail[1]}, {Kind: OpActivate, Slot: tail[2]}},
	}
	i := 0
	toggle := func() {
		flush(batches[i%len(batches)])
		i++
	}
	for k := 0; k < 4; k++ {
		toggle()
	}
	if allocs := testing.AllocsPerRun(40, toggle); allocs > 20 {
		t.Errorf("a warm dense incremental flush allocates %.1f objects, ceiling 20", allocs)
	}
}

// stagingSink stages every table pushed to it and withdraws the staged
// one on AbortStaged, as a dispatcher does before its machine reaches
// the next boundary.
type stagingSink struct{ staged *table.Table }

func (k *stagingSink) PushTable(tbl *table.Table) error { k.staged = tbl; return nil }

func (k *stagingSink) AbortStaged() *table.Table {
	tbl := k.staged
	k.staged = nil
	return tbl
}

// sameTasks reports whether two cores' task sets are alike but for the
// spec indices (Group) that name their VMs.
func sameTasks(a, b periodic.TaskSet) bool {
	return slices.EqualFunc(a, b, func(x, y periodic.Task) bool {
		x.Group, y.Group = 0, 0
		return x == y
	})
}

// TestAdoptedCoresAreShared: a core the planner adopts is the previous
// Result's allocation list, and the epoch places that same list — no
// flush copies it. The journaled dense host walks 200 flushes of the
// benchmark's churn (denseOps); at flush 100 an emergency whose plan
// fails withdraws the staged epoch and re-commits its predecessor, and
// the walk goes on on the 15 survivors. On every flush a core whose task
// set the plan kept (slots are ids, so its VMs kept theirs) shares its
// allocation list with the previous Result and with the previous epoch,
// and no other core does.
func TestAdoptedCoresAreShared(t *testing.T) {
	s, ctrl := stormRig(t, true)
	sink := &stagingSink{}
	ep0 := ctrl.Epoch()
	ctrl, err := NewController(s, sink, &planner.Result{Table: ep0.Table, Guarantees: ep0.Guarantees})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.MaxHistory = 64
	if err := ctrl.AttachJournal(journal.NewWriter(journal.NewMemStore())); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	on, off := make([]int, 192), []int(nil)
	for i := range on {
		on[i] = i
	}
	adopted := 0
	for i := 0; i < 200; i++ {
		prevEp, prevRes := ctrl.Epoch(), s.inc.prev.Res
		if i == 100 {
			ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
				return nil, errors.New("planner service down")
			}
			ctrl.Submit(Op{Kind: OpFailCore, Core: 5})
			if tr, _ := ctrl.Flush(); tr == nil || !tr.RolledBack {
				t.Fatalf("the emergency did not roll back: %+v", tr)
			}
			ctrl.PlanVia = nil
			h := ctrl.History()
			if ep := ctrl.Epoch(); ep.Version != h[len(h)-1].Version || ep.Table == prevEp.Table {
				t.Fatalf("the rollback did not revert to the predecessor of v%d", prevEp.Version)
			}
			continue
		}
		ctrl.SubmitBatch(denseOps(rng, &on, &off))
		if tr, err := ctrl.Flush(); err != nil || tr.Version == 0 || len(tr.Rejected) > 0 {
			t.Fatalf("flush %d did not commit whole: %+v, %v", i, tr, err)
		}
		ep, res := ctrl.Epoch(), s.inc.prev.Res
		online := s.onlineCoresLocked()
		for c := range res.Table.Cores {
			kept := res.Incremental && len(res.Table.Cores) == len(prevRes.Table.Cores) &&
				len(res.CoreTasks[c]) > 0 && sameTasks(res.CoreTasks[c], prevRes.CoreTasks[c])
			as := res.Table.Cores[c].Allocs
			shared := sameBacking(as, prevRes.Table.Cores[c].Allocs)
			if kept != shared {
				t.Fatalf("flush %d core %d: task set kept %v, allocation list shared with the previous Result %v", i, c, kept, shared)
			}
			placed := ep.Table.Cores[online[c]].Allocs
			if !sameBacking(placed, as) && len(as) > 0 {
				t.Fatalf("flush %d core %d: the epoch does not place the plan's own list", i, c)
			}
			if kept {
				adopted++
				if !sameBacking(placed, prevEp.Table.Cores[online[c]].Allocs) {
					t.Fatalf("flush %d core %d: adopted, but not the previous epoch's list", i, c)
				}
			}
		}
	}
	t.Logf("%d cores adopted in 199 flushes", adopted)
	if adopted < 199*10 {
		t.Errorf("%d cores adopted in 199 flushes of a 16-core host", adopted)
	}
}
