package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/vmm"
)

// eighthVM is a small reservation so several fit per core.
func eighthVM(name string) VMConfig {
	return VMConfig{Name: name, Util: Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000, Capped: true}
}

// churnRig is a system with nActive resident slots plus nSpare
// registered-but-inactive slots, its dispatcher attached to a started
// (but not yet run) machine with one vCPU per slot, and a controller.
// Until the caller runs the machine, no core adopts staged tables.
func churnRig(t *testing.T, cores, nActive, nSpare int) (*System, *dispatch.Dispatcher, *Controller, []int, *vmm.Machine) {
	t.Helper()
	s := NewSystem(cores, planner.Options{}, dispatch.Options{})
	var ids []int
	for i := 0; i < nActive+nSpare; i++ {
		id, err := s.AddVM(eighthVM(fmt.Sprintf("vm%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[nActive:] {
		if err := s.SetActive(id, false); err != nil {
			t.Fatal(err)
		}
	}
	d, res, err := s.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	m := attachMachine(s, d)
	ctrl, err := NewController(s, d, res)
	if err != nil {
		t.Fatal(err)
	}
	return s, d, ctrl, ids, m
}

// attachMachine binds a started (not run) machine with one vCPU per
// slot to the dispatcher so PushTable has a time base; nothing adopts
// until the caller runs it.
func attachMachine(s *System, d *dispatch.Dispatcher) *vmm.Machine {
	m := vmm.New(sim.New(1), s.Cores(), d, vmm.NoOverheads())
	for i := 0; i < s.NumSlots(); i++ {
		m.AddVCPU(s.Config(i).Name, vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
			return vmm.Compute(1_000_000)
		}), 256, true)
	}
	m.Start()
	return m
}

// activeBytes canonicalizes the dispatcher's active table in the same
// compact encoding Epoch.Bytes uses, so the two are directly comparable.
func activeBytes(t *testing.T, d *dispatch.Dispatcher) []byte {
	t.Helper()
	enc, err := d.ActiveTable().AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestControllerCoalescesBurstIntoOnePlan: a burst of queued ops is one
// transition — one planner invocation, one new epoch.
func TestControllerCoalescesBurstIntoOnePlan(t *testing.T) {
	_, _, ctrl, ids, _ := churnRig(t, 2, 2, 4)
	ctrl.SubmitBatch([]Op{
		{Kind: OpActivate, Slot: ids[2]},
		{Kind: OpActivate, Slot: ids[3]},
		{Kind: OpActivate, Slot: ids[4]},
		{Kind: OpReconfigure, Slot: ids[0], Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
	})
	if got := ctrl.Pending(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if tr.PlannerCalls != 1 {
		t.Errorf("planner calls = %d, want 1 (the burst must coalesce)", tr.PlannerCalls)
	}
	if len(tr.Committed) != 4 || len(tr.Rejected) != 0 || tr.RolledBack {
		t.Errorf("transition = %+v, want 4 committed, none rejected", tr)
	}
	if tr.Version == 0 || tr.Version != ctrl.Epoch().Version {
		t.Errorf("version %d vs epoch %d", tr.Version, ctrl.Epoch().Version)
	}
	st := ctrl.ControllerStats()
	if st.Flushes != 1 || st.PlannerCalls != 1 || st.OpsCoalesced != 4 || st.Transitions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if h := ctrl.History(); len(h) != 2 || h[1].Version <= h[0].Version {
		t.Errorf("history versions not monotonic: %d epochs", len(h))
	}
	// An empty queue flushes to nothing.
	if tr2, err := ctrl.Flush(); err != nil || tr2 != nil {
		t.Errorf("empty flush = (%v, %v)", tr2, err)
	}
}

// TestControllerRejectsInadmissibleArrivalIndividually: an arrival the
// admission check refuses is undone and rejected on its own; the rest
// of the batch commits and the refused VM never touches the installed
// epoch.
func TestControllerRejectsInadmissibleArrivalIndividually(t *testing.T) {
	s := NewSystem(1, planner.Options{}, dispatch.Options{})
	a, _ := s.AddVM(VMConfig{Name: "a", Util: Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true})
	b, _ := s.AddVM(VMConfig{Name: "b", Util: Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true})
	big, _ := s.AddVM(VMConfig{Name: "big", Util: Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true})
	_ = a
	if err := s.SetActive(big, false); err != nil {
		t.Fatal(err)
	}
	d, res, err := s.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	attachMachine(s, d)
	ctrl, err := NewController(s, d, res)
	if err != nil {
		t.Fatal(err)
	}
	before := activeBytes(t, d)

	// The overload arrival alone: refused, previous epoch stands.
	ctrl.Submit(Op{Kind: OpActivate, Slot: big})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rejected) != 1 || tr.Version != 0 || len(tr.Committed) != 0 {
		t.Fatalf("transition = %+v, want one rejection and no new epoch", tr)
	}
	if s.Active(big) {
		t.Error("rejected arrival left the slot active")
	}
	if !bytes.Equal(activeBytes(t, d), before) {
		t.Error("rejected-only batch changed the active table")
	}
	if d.Staged() != nil {
		t.Error("rejected-only batch staged a table")
	}

	// Mixed batch: the departure ahead of the overload arrival makes
	// room, so this time both commit in arrival order.
	ctrl.SubmitBatch([]Op{
		{Kind: OpDeactivate, Slot: b},
		{Kind: OpActivate, Slot: big},
	})
	tr, err = ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Committed) != 2 || len(tr.Rejected) != 0 {
		t.Fatalf("transition = %+v, want both ops committed", tr)
	}
	if !s.Active(big) || s.Active(b) {
		t.Error("committed batch not reflected in the population")
	}
}

// TestControllerRollbackRestoresPreviousEpoch: when planning fails
// terminally mid-transition the whole batch is undone and the
// dispatcher keeps enacting the previous epoch bit-for-bit.
func TestControllerRollbackRestoresPreviousEpoch(t *testing.T) {
	s, d, ctrl, ids, m := churnRig(t, 2, 4, 0)
	m.Run(50_000_000)
	v1 := ctrl.Epoch().Version
	before := append([]byte(nil), ctrl.Epoch().Bytes...)

	planErr := errors.New("planner service down")
	ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, planErr
	}
	// A departure is not sheddable: the failed plan forces full rollback.
	ctrl.Submit(Op{Kind: OpDeactivate, Slot: ids[3]})
	tr, err := ctrl.Flush()
	if err == nil || !tr.RolledBack || !errors.Is(tr.Err, planErr) {
		t.Fatalf("transition = %+v, err = %v; want rollback on plan failure", tr, err)
	}
	if !s.Active(ids[3]) {
		t.Error("rolled-back departure left the slot inactive")
	}
	if d.Staged() != nil {
		t.Error("rolled-back transition left a staged table")
	}
	if !bytes.Equal(activeBytes(t, d), before) {
		t.Error("dispatcher's active table differs from the pre-transition epoch")
	}
	if got := ctrl.Epoch().Version; got != v1 {
		t.Errorf("epoch = %d, want unchanged %d", got, v1)
	}
	if st := ctrl.ControllerStats(); st.Rollbacks != 1 || st.Transitions != 0 {
		t.Errorf("stats = %+v", st)
	}

	// Planner recovers: the same departure now commits.
	ctrl.PlanVia = nil
	ctrl.Submit(Op{Kind: OpDeactivate, Slot: ids[3]})
	tr, err = ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version <= v1 || s.Active(ids[3]) {
		t.Errorf("recovery transition = %+v", tr)
	}
}

// failingSink wraps a sink and fails installs on demand: the rollback
// path for a push that the hypervisor side refuses.
type failingSink struct {
	TableSink
	fail bool
}

func (f *failingSink) PushTable(tbl *table.Table) error {
	if f.fail {
		return errors.New("install refused")
	}
	return f.TableSink.PushTable(tbl)
}

func TestControllerRollbackOnFailedInstall(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	var ids []int
	for i := 0; i < 3; i++ {
		id, _ := s.AddVM(eighthVM(fmt.Sprintf("vm%d", i)))
		ids = append(ids, id)
	}
	s.SetActive(ids[2], false)
	d, res, err := s.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	attachMachine(s, d)
	sink := &failingSink{TableSink: d, fail: true}
	ctrl, err := NewController(s, sink, res)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), ctrl.Epoch().Bytes...)
	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	tr, err := ctrl.Flush()
	if err == nil || !tr.RolledBack {
		t.Fatalf("transition = %+v, err = %v; want rollback on failed install", tr, err)
	}
	if s.Active(ids[2]) {
		t.Error("rolled-back arrival left the slot active")
	}
	if !bytes.Equal(activeBytes(t, d), before) {
		t.Error("failed install changed the active table")
	}
	sink.fail = false
	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	if _, err := ctrl.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Active(ids[2]) {
		t.Error("retry after install failure did not commit")
	}
}

// TestControllerEmergencyRollbackKeepsDegradedEpoch: a fail-stop whose
// recovery replan fails must leave the dispatcher enacting the previous
// fully-adopted epoch (degraded mode), with the failure mark — a fact,
// not transaction state — surviving the rollback so the retry plans on
// the surviving cores.
func TestControllerEmergencyRollbackKeepsDegradedEpoch(t *testing.T) {
	s, d, ctrl, _, m := churnRig(t, 2, 3, 0)
	m.Run(50_000_000)
	v1 := ctrl.Epoch().Version
	before := append([]byte(nil), ctrl.Epoch().Bytes...)

	// The core fail-stops at machine level; the dispatcher enters
	// degraded mode on its own (OnCoreFail remaps stranded vCPUs).
	m.FailCore(1)
	planErr := errors.New("planner service down")
	ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, planErr
	}
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	tr, err := ctrl.Flush()
	if err == nil || !tr.Emergency || !tr.RolledBack {
		t.Fatalf("transition = %+v, err = %v; want emergency rollback", tr, err)
	}
	if got := s.FailedCores(); len(got) != 1 || got[0] != 1 {
		t.Errorf("failed cores = %v, want [1]: the failure mark must survive rollback", got)
	}
	if !bytes.Equal(activeBytes(t, d), before) {
		t.Error("dispatcher left the previous epoch although recovery was rolled back")
	}
	if got := ctrl.Epoch().Version; got != v1 {
		t.Errorf("epoch = %d, want unchanged %d", got, v1)
	}

	// Planner recovers: the re-submitted fail-stop plans the population
	// onto the survivor, and the machine adopts the recovery epoch.
	ctrl.PlanVia = nil
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	tr, err = ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Emergency || tr.Version <= v1 {
		t.Fatalf("recovery transition = %+v", tr)
	}
	m.Run(100_000_000)
	if got := d.ActiveTable().Generation; got != tr.Version {
		t.Errorf("active generation = %d, want adopted recovery epoch %d", got, tr.Version)
	}
	if len(d.ActiveTable().Cores[1].Allocs) != 0 {
		t.Error("recovery table still allocates the failed core")
	}
}

// TestControllerEmergencyRollbackWithdrawsUnadoptedStagedTable: a
// committed epoch whose table no core ever adopted is withdrawn when an
// emergency transition rolls back — degraded mode must keep enacting
// the last table the cores actually run, and the epoch history must
// match.
func TestControllerEmergencyRollbackWithdrawsUnadoptedStagedTable(t *testing.T) {
	// No machine: nothing ever adopts, so pushed tables stay staged.
	_, d, ctrl, ids, _ := churnRig(t, 2, 3, 1)
	v1 := ctrl.Epoch().Version
	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[3]})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	v2 := tr.Version
	if d.Staged() == nil {
		t.Fatal("no staged table after a committed transition")
	}
	if got := ctrl.Epoch().Version; got != v2 {
		t.Fatalf("epoch = %d, want %d", got, v2)
	}

	ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, errors.New("planner service down")
	}
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	if _, err := ctrl.Flush(); err == nil {
		t.Fatal("emergency flush with a dead planner should fail")
	}
	if d.Staged() != nil {
		t.Error("emergency rollback left the pre-failure table staged")
	}
	if got := ctrl.Epoch().Version; got != v1 {
		t.Errorf("epoch = %d, want reverted to %d: the withdrawn epoch was never adopted", got, v1)
	}
	if h := ctrl.History(); len(h) != 1 || h[0].Version != v1 {
		t.Errorf("history has %d epochs, want the initial one only", len(h))
	}
}

// TestControllerShedsLatestArrivalWhenPlacementFails: a batch that
// passes utilization admission but overwhelms placement sheds its most
// recent arrivals (rejecting them individually) instead of rolling the
// whole storm back.
func TestControllerShedsLatestArrivalWhenPlacementFails(t *testing.T) {
	s, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
	// A planning backend that refuses populations above 3 VMs: a stand-in
	// for placement infeasibility past the utilization bound.
	calls := 0
	ctrl.PlanVia = func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		calls++
		if len(specs) > 3 {
			return nil, errors.New("placement infeasible")
		}
		return planner.Plan(specs, opts)
	}
	ctrl.SubmitBatch([]Op{
		{Kind: OpActivate, Slot: ids[2]},
		{Kind: OpActivate, Slot: ids[3]},
	})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatalf("shed-retry should commit the survivors: %v (transition %+v)", err, tr)
	}
	if len(tr.Committed) != 1 || tr.Committed[0].Slot != ids[2] {
		t.Errorf("committed = %v, want the earlier arrival only", tr.Committed)
	}
	if len(tr.Rejected) != 1 || tr.Rejected[0].Op.Slot != ids[3] {
		t.Errorf("rejected = %v, want the most recent arrival shed", tr.Rejected)
	}
	if tr.PlannerCalls != 2 || calls != 2 {
		t.Errorf("planner calls = %d/%d, want 2 (initial + one shed retry)", tr.PlannerCalls, calls)
	}
	if s.Active(ids[3]) {
		t.Error("shed arrival left the slot active")
	}
	if !s.Active(ids[2]) {
		t.Error("committed arrival not active")
	}
}

// TestMaxHistoryBounds: a bounded controller retains only the newest
// MaxHistory epochs (never fewer than two, so the emergency-rollback
// predecessor stays reachable), and the retained suffix matches what an
// unbounded controller records for the same op sequence.
func TestMaxHistoryBounds(t *testing.T) {
	_, _, ctrl, ids, _ := churnRig(t, 2, 2, 1)
	_, _, full, fullIDs, _ := churnRig(t, 2, 2, 1)
	ctrl.MaxHistory = 3
	toggle := func(c *Controller, slot int, active bool) {
		t.Helper()
		kind := OpDeactivate
		if active {
			kind = OpActivate
		}
		c.Submit(Op{Kind: kind, Slot: slot})
		if tr, err := c.Flush(); err != nil || tr.Version == 0 {
			t.Fatalf("flush: %v (%+v)", err, tr)
		}
	}
	for i := 0; i < 8; i++ {
		active := i%2 == 1
		toggle(ctrl, ids[2], active)
		toggle(full, fullIDs[2], active)
	}
	got, want := ctrl.History(), full.History()
	if len(got) != 3 {
		t.Fatalf("bounded history has %d epochs, want 3", len(got))
	}
	tail := want[len(want)-3:]
	for i := range got {
		if got[i].Version != tail[i].Version || !bytes.Equal(got[i].Bytes, tail[i].Bytes) {
			t.Fatalf("retained epoch %d = v%d, want v%d (unbounded tail)", i, got[i].Version, tail[i].Version)
		}
	}
	if ctrl.Epoch().Version != full.Epoch().Version {
		t.Fatalf("current epoch diverged: %d vs %d", ctrl.Epoch().Version, full.Epoch().Version)
	}
}

// TestReconfigureInactiveSlotShedsNothing: reconfiguring an inactive
// slot does not change the active population, so it must not run
// admission — on a degraded host whose emergency replan was inadmissible
// and rolled back, that no-op used to "fail" admission and shed an
// active best-effort guest on its behalf.
func TestReconfigureInactiveSlotShedsNothing(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	for i, cfg := range []VMConfig{
		{Name: "ls0", Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
		{Name: "ls1", Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
		{Name: "be0", Util: Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Class: BE},
		{Name: "be1", Util: Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Class: BE},
		{Name: "free", Util: Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
	} {
		if _, err := s.AddVM(cfg); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if err := s.SetActive(4, false); err != nil {
		t.Fatal(err)
	}
	d, res, err := s.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	attachMachine(s, d)
	ctrl, err := NewController(s, d, res)
	if err != nil {
		t.Fatal(err)
	}

	// Losing a core leaves 3/2 reserved on one survivor: the emergency
	// replan is inadmissible and rolls back, the population stands.
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	if tr, err := ctrl.Flush(); err == nil || !tr.RolledBack {
		t.Fatalf("fail-stop transition = %+v, err = %v; want a rollback", tr, err)
	}

	ctrl.Submit(Op{Kind: OpReconfigure, Slot: 4, Util: Util{Num: 1, Den: 64}, LatencyGoal: 20_000_000, SetClass: true, Class: LS})
	tr, _ := ctrl.Flush()
	for _, op := range tr.Committed {
		if op.Shed {
			t.Errorf("reconfiguring an inactive slot shed an active guest: committed %v", tr.Committed)
		}
	}
	for id := 0; id < 4; id++ {
		if !s.Active(id) {
			t.Errorf("slot %d was deactivated by a reconfigure of inactive slot 4", id)
		}
	}
}
