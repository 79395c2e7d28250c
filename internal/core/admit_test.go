package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// admitRig is an n-core system whose slots are cfgs, the ones not in
// active deactivated, planned, under a controller installing into sink.
func admitRig(t *testing.T, cores int, cfgs []VMConfig, active []bool, sink TableSink) (*System, *Controller) {
	t.Helper()
	s := NewSystem(cores, planner.Options{}, dispatch.Options{})
	for i, cfg := range cfgs {
		if _, err := s.AddVM(cfg); err != nil {
			t.Fatal(err)
		}
		if !active[i] {
			if err := s.SetActive(i, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, res, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(s, sink, res)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctrl
}

func vmOf(name string, num, den int64, class Class) VMConfig {
	return VMConfig{Name: name, Util: Util{Num: num, Den: den}, LatencyGoal: 20_000_000, Capped: true, Class: class}
}

// TestFlushRejectsEachInadmissibleOpAlone: in one batch, an activation
// whose name an active slot holds is refused with the planner's
// duplicate-name error and an over-utilizing one with its
// *ErrOverUtilized; the op after them commits, with no shed and no
// rollback.
func TestFlushRejectsEachInadmissibleOpAlone(t *testing.T) {
	n := checkAdmissions(t)
	s, ctrl := admitRig(t, 1, []VMConfig{
		vmOf("a", 1, 2, LS),
		vmOf("b", 1, 4, LS),
		vmOf("a", 1, 8, LS), // a second "a"
		vmOf("big", 1, 2, LS),
		vmOf("c", 1, 8, LS),
	}, []bool{true, true, false, false, false}, &stagingSink{})
	v0 := ctrl.Epoch().Version
	ctrl.SubmitBatch([]Op{
		{Kind: OpActivate, Slot: 2},
		{Kind: OpActivate, Slot: 3},
		{Kind: OpActivate, Slot: 4},
	})
	tr, err := ctrl.Flush()
	if err != nil || tr.RolledBack {
		t.Fatalf("transition = %+v, err = %v; want a commit", tr, err)
	}
	if want := []Op{{Kind: OpActivate, Slot: 4}}; !slices.Equal(tr.Committed, want) || tr.Version <= v0 {
		t.Fatalf("committed %v at version %d, want %v after %d", tr.Committed, tr.Version, want, v0)
	}
	if len(tr.Rejected) != 2 {
		t.Fatalf("rejected %v, want the duplicate and the overload", tr.Rejected)
	}
	dupSpec := planner.VCPUSpec{Name: "a", Util: Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000}
	wantDup := planner.Admit([]planner.VCPUSpec{dupSpec, dupSpec}, 1)
	var dup *planner.DuplicateNameError
	if r := tr.Rejected[0]; r.Op.Slot != 2 || !errors.As(r.Err, &dup) || dup.Name != "a" || r.Err.Error() != wantDup.Error() {
		t.Errorf("duplicate activation refused with %v (%T), want %v", r.Err, r.Err, wantDup)
	}
	var over *planner.ErrOverUtilized
	if r := tr.Rejected[1]; r.Op.Slot != 3 || !errors.As(r.Err, &over) ||
		over.Cores != 1 || over.Total.Cmp(big.NewRat(5, 4)) != 0 {
		t.Errorf("overload refused with %v (%T), want an *ErrOverUtilized of 5/4 on 1 core", r.Err, r.Err)
	}
	for i, want := range []bool{true, true, false, false, true} {
		if s.Active(i) != want {
			t.Errorf("slot %d active = %v, want %v", i, s.Active(i), want)
		}
	}
	if st := ctrl.ControllerStats(); st.Rollbacks != 0 || st.Rejections != 2 {
		t.Errorf("stats = %+v", st)
	}
	if n.dup == 0 || n.over == 0 || n.ok == 0 {
		t.Errorf("verdicts %+v: want a duplicate, an overload and a pass", *n)
	}
}

// TestLSActivationShedsYoungestBE: an LS activation over the bound sheds
// active BE slots, highest id first, until the population admits; the
// victims commit as shed deactivations ahead of the activation.
func TestLSActivationShedsYoungestBE(t *testing.T) {
	checkAdmissions(t)
	s, ctrl := admitRig(t, 1, []VMConfig{
		vmOf("ls", 1, 2, LS),
		vmOf("be1", 1, 8, BE),
		vmOf("be2", 1, 8, BE),
		vmOf("be3", 1, 8, BE),
		vmOf("be4", 1, 8, BE),
		vmOf("new", 1, 4, LS),
	}, []bool{true, true, true, true, true, false}, &stagingSink{})
	ctrl.Submit(Op{Kind: OpActivate, Slot: 5})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpDeactivate, Slot: 4, Shed: true},
		{Kind: OpDeactivate, Slot: 3, Shed: true},
		{Kind: OpActivate, Slot: 5},
	}
	if !slices.Equal(tr.Committed, want) || len(tr.Rejected) != 0 {
		t.Fatalf("committed %v, rejected %v; want %v", tr.Committed, tr.Rejected, want)
	}
	for i, want := range []bool{true, true, true, false, false, true} {
		if s.Active(i) != want {
			t.Errorf("slot %d active = %v, want %v", i, s.Active(i), want)
		}
	}
}

// flakySink installs nothing and refuses installs on demand.
type flakySink struct{ fail bool }

func (k *flakySink) PushTable(*table.Table) error {
	if k.fail {
		return errors.New("install refused")
	}
	return nil
}

// TestPerOpAdmissionMatchesPlanner walks 2000 seeded batches of
// activations, deactivations, reconfigurations (some invalid, some
// changing the class), core failures, refused installs and failing
// plans over hosts whose slots include two name pairs, scratch and
// incremental alike. Every per-op admission verdict — each check after
// an op and each of the shed path's — must equal the planner's full
// admission of the active population.
func TestPerOpAdmissionMatchesPlanner(t *testing.T) {
	n := checkAdmissions(t)
	rng := rand.New(rand.NewSource(36))
	utils := []Util{{Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 16}, {Num: 3, Den: 8},
		{Num: 1, Den: 3}, {Num: 1, Den: 64}, planner.UtilFromPPM(185_000), {Num: 1, Den: 2}}
	goals := []int64{5_000_000, 10_000_000, 20_000_000}
	const slots, cores = 24, 4
	failPlan := func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, errors.New("planner service down")
	}
	var (
		s     *System
		ctrl  *Controller
		sink  *flakySink
		sheds int
	)
	for b := 0; b < 2000; b++ {
		if b%200 == 0 || len(s.FailedCores()) == cores-1 {
			cfgs := make([]VMConfig, slots)
			active := make([]bool, slots)
			for i := range cfgs {
				cfgs[i] = VMConfig{Name: fmt.Sprintf("vm%d", i), Util: utils[rng.Intn(len(utils))],
					LatencyGoal: goals[rng.Intn(len(goals))], Capped: rng.Intn(2) == 0, Class: Class(rng.Intn(2))}
				active[i] = i < 8
			}
			cfgs[0].Util, cfgs[1].Util = Util{Num: 1, Den: 4}, Util{Num: 1, Den: 4}
			// Two names held by two slots each, one of each pair active.
			cfgs[12].Name, cfgs[17].Name = cfgs[0].Name, cfgs[1].Name
			sink = &flakySink{}
			s, ctrl = admitRig(t, cores, cfgs, active, sink)
			s.Incremental = b/200%2 == 1
		}
		sink.fail = rng.Intn(10) == 0
		ctrl.PlanVia = nil
		if rng.Intn(20) == 0 {
			ctrl.PlanVia = failPlan
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			slot := rng.Intn(slots)
			switch r := rng.Intn(100); {
			case r < 40:
				ctrl.Submit(Op{Kind: OpActivate, Slot: slot})
			case r < 65:
				ctrl.Submit(Op{Kind: OpDeactivate, Slot: slot})
			case r < 95:
				op := Op{Kind: OpReconfigure, Slot: slot, Util: utils[rng.Intn(len(utils))], LatencyGoal: goals[rng.Intn(len(goals))]}
				if rng.Intn(10) == 0 {
					op.Util = Util{Num: 0, Den: 1}
				}
				if rng.Intn(3) == 0 {
					op.SetClass, op.Class = true, Class(rng.Intn(2))
				}
				ctrl.Submit(op)
			case r < 97:
				ctrl.Submit(Op{Kind: OpFailCore, Core: rng.Intn(cores)})
			default:
				ctrl.Submit(Op{Kind: OpActivate, Slot: slots + slot})
			}
		}
		tr, _ := ctrl.Flush()
		for _, op := range tr.Committed {
			if op.Shed {
				sheds++
			}
		}
	}
	st := ctrl.ControllerStats()
	t.Logf("verdicts %+v, sheds %d, last host's stats %+v", *n, sheds, st)
	if n.ok == 0 || n.over == 0 || n.dup == 0 || n.lsOnly == 0 || sheds == 0 {
		t.Errorf("the walk missed a verdict or a shed: %+v, %d sheds", *n, sheds)
	}
}
