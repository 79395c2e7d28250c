package verify

import (
	"slices"
	"sort"
	"testing"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// nullSink accepts every staged table; the equivalence tests drive the
// Controller directly (no machine), so there is nothing to adopt.
type nullSink struct{}

func (nullSink) PushTable(*table.Table) error { return nil }

// churnEpochs replays a scenario's churn storm through a Controller
// without the simulator: bursts are submitted and flushed in time
// order, exactly like the run harness does from engine callbacks. With
// scratch set every plan is computed from nothing; otherwise the
// system replans incrementally with a slice memo, as in Run.
func churnEpochs(t *testing.T, sc *Scenario, scratch bool) []core.Epoch {
	t.Helper()
	sys := core.NewSystem(sc.Cores, planner.Options{}, dispatch.Options{})
	if !scratch {
		sys.Cache = planner.NewCache(0)
		sys.Incremental = true
	}
	for slot := 0; slot < sc.NumSlots(); slot++ {
		vm := sc.VM(slot)
		id, err := sys.AddVM(core.VMConfig{
			Name: vm.Name, Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: vm.Capped,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if slot >= len(sc.VMs) {
			if err := sys.SetActive(id, false); err != nil {
				t.Fatalf("%s: %v", sc, err)
			}
		}
	}
	_, res, err := sys.Plan()
	if err != nil {
		t.Fatalf("%s: initial plan: %v", sc, err)
	}
	ctrl, err := core.NewController(sys, nullSink{}, res)
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	for i := 0; i < len(sc.Churn); {
		j := i
		for j < len(sc.Churn) && sc.Churn[j].At == sc.Churn[i].At {
			j++
		}
		for _, op := range sc.Churn[i:j] {
			kind := core.OpDeactivate
			if op.Activate {
				kind = core.OpActivate
			}
			ctrl.Submit(core.Op{Kind: kind, Slot: op.Slot})
		}
		if _, err := ctrl.Flush(); err != nil {
			t.Fatalf("%s: flush at %d: %v", sc, sc.Churn[i].At, err)
		}
		i = j
	}
	return ctrl.History()
}

// sortedGuarantees returns a copy ordered by vCPU id.
func sortedGuarantees(gs []table.Guarantee) []table.Guarantee {
	out := append([]table.Guarantee(nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i].VCPU < out[j].VCPU })
	return out
}

// TestIncrementalScratchEquivalence is the satellite determinism pin:
// over 200 seeded churn storms, the incremental pipeline (slice reuse,
// dirty-core diffing) must commit epoch-for-epoch the same
// guarantees as scratch replanning, and every incremental table must
// pass table.Check against the scratch run's guarantees. Tables may
// legitimately differ in layout — the pinned partition is not the WFD
// partition — but never in what they promise or deliver.
func TestIncrementalScratchEquivalence(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 50
	}
	cfg := Config{ChurnPct: 100}
	checked := 0
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed, cfg)
		if len(sc.Churn) == 0 {
			continue
		}
		checked++
		inc := churnEpochs(t, sc, false)
		scr := churnEpochs(t, sc, true)
		if len(inc) != len(scr) {
			t.Errorf("seed %d (%s): %d incremental epochs vs %d scratch", seed, sc, len(inc), len(scr))
			continue
		}
		for k := range inc {
			if inc[k].Version != scr[k].Version {
				t.Errorf("seed %d: epoch %d version %d (incremental) vs %d (scratch)",
					seed, k, inc[k].Version, scr[k].Version)
				continue
			}
			ig, sg := sortedGuarantees(inc[k].Guarantees), sortedGuarantees(scr[k].Guarantees)
			if len(ig) != len(sg) {
				t.Errorf("seed %d epoch %d: %d guarantees (incremental) vs %d (scratch)",
					seed, inc[k].Version, len(ig), len(sg))
				continue
			}
			for x := range ig {
				if ig[x] != sg[x] {
					t.Errorf("seed %d epoch %d: guarantee mismatch: %+v (incremental) vs %+v (scratch)",
						seed, inc[k].Version, ig[x], sg[x])
				}
			}
			if err := inc[k].Table.Check(sg); err != nil {
				t.Errorf("seed %d epoch %d: incremental table fails scratch guarantees: %v",
					seed, inc[k].Version, err)
			}
		}
	}
	if checked < int(n)*3/4 {
		t.Fatalf("only %d/%d seeds produced churn at ChurnPct=100", checked, n)
	}
}

// stalePlanVia is the stale-slice mutant, a planning backend that
// replans incrementally from its own previous plan but hands the
// planner the previous spec of any reconfigured non-full VM: the VM
// keeps its stale placement and the stale spec that makes the planner's
// own final check pass.
func stalePlanVia() core.PlanFunc {
	var prev *planner.PrevPlan
	return func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		planned := specs
		if prev != nil {
			old := make(map[string]planner.VCPUSpec, len(prev.Specs))
			for _, p := range prev.Specs {
				old[p.Name] = p
			}
			planned = slices.Clone(specs)
			for i, c := range planned {
				if p, ok := old[c.Name]; ok && p != c && !p.Util.IsFull() && !c.Util.IsFull() {
					planned[i] = p
				}
			}
		}
		res, err := planner.PlanIncremental(planned, opts, prev)
		if err == nil {
			prev = &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
		}
		return res, err
	}
}

// TestMutationSmokeStaleSliceReuse proves the epoch-fidelity oracle
// earns its keep against the planner defect the evict oracle cannot
// see: stalePlanVia treats a reconfigured VM as untouched and re-plans
// it from its stale pre-reconfiguration spec. The resulting epoch is
// completely self-consistent — its table passes Check against its own
// guarantees, nobody loses a guarantee, the trace agrees — and only the
// committed OpReconfigure's obligations reveal the lie.
//
// vm1's latency goal tightens from 20 ms to 5 ms mid-run. The correct
// incremental planner marks vm1 dirty and re-synthesizes its core; the
// defective one pins it with the stale 20 ms reservation. A plain
// planner routed through the same backend hook stays clean, so the
// hook is not what the oracle convicts.
func TestMutationSmokeStaleSliceReuse(t *testing.T) {
	sc := &Scenario{
		Seed:  11,
		Cores: 2,
		VMs: []VMSpec{
			{Name: "vm0.0", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true},
			{Name: "vm1.0", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true},
		},
		Spares: []VMSpec{
			{Name: "spare0.0", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true},
		},
		Churn:  []ChurnOp{{At: 40_000_000, Slot: 2, Activate: true}},
		Replan: &ReplanSpec{At: 60_000_000, Slot: 1, NewGoal: 5_000_000},
	}

	for _, k := range []struct {
		name string
		knob runKnobs
	}{{"incremental", runKnobs{}}, {"via planner.Plan", runKnobs{planVia: planner.Plan}}} {
		clean, err := runWith(sc, k.knob)
		if err != nil {
			t.Fatal(err)
		}
		if vs := CheckAll(clean); len(vs) != 0 {
			t.Fatalf("correct planner (%s) flagged: %v", k.name, vs)
		}
		if len(clean.Transitions) != 2 {
			t.Fatalf("expected 2 transitions (arrival, reconfigure), got %+v", clean.Transitions)
		}
	}

	evil, err := runWith(sc, runKnobs{planVia: stalePlanVia()})
	if err != nil {
		t.Fatal(err)
	}
	// The defect must have actually fired: the reconfiguration still
	// committed an epoch (history: initial, arrival, reconfigure).
	if len(evil.Controller.History()) < 3 {
		t.Fatalf("stale-reuse defect did not install the reconfiguration epoch (history %d)",
			len(evil.Controller.History()))
	}
	found := false
	for _, v := range CheckAll(evil) {
		if v.Class == ClassContinuity {
			t.Logf("convicted: %s", v)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("epoch-fidelity oracle missed the stale reservation")
	}
}
