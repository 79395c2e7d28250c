package core_test

import (
	"testing"

	"tableau/internal/core"
	"tableau/internal/planner"
	"tableau/internal/verify"
)

// TestMutationSmokeShedLSFirst proves the class-aware continuity
// oracle earns its keep: a controller defect that inverts the shed
// order — taking a latency-sensitive guarantee while a best-effort
// guest still holds the slack — must be caught as a shed-order
// violation, while the correct controller sheds the BE guest and stays
// clean. The inverted shed is committed and journaled, so retention
// alone cannot object; only the class check convicts it.
//
// The host is one core: vm0 is LS at 1/2, vm1 is BE at 1/4, and the
// arriving LS spare wants another 1/2 (total 1.25 cores). The LS
// subpopulation alone fits exactly (1/2 + 1/2), so admission is
// entitled to displace BE slack: the correct controller sheds vm1 and
// admits the spare; the defective one sheds vm0 while vm1 remains.
func TestMutationSmokeShedLSFirst(t *testing.T) {
	sc := &verify.Scenario{
		Seed:  7,
		Cores: 1,
		VMs: []verify.VMSpec{
			{Name: "vm0.0", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true},
			{Name: "vm1.0", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true, Class: planner.BE},
		},
		Spares: []verify.VMSpec{
			{Name: "spare0.0", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true},
		},
		Churn: []verify.ChurnOp{{At: 50_000_000, Slot: 2, Activate: true}},
	}

	clean, err := verify.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := verify.CheckAll(clean); len(vs) != 0 {
		t.Fatalf("correct controller flagged: %v", vs)
	}
	if len(clean.Transitions) != 1 {
		t.Fatalf("expected one transition, got %+v", clean.Transitions)
	}
	tr := clean.Transitions[0].Tr
	if len(tr.Rejected) != 0 {
		t.Fatalf("correct controller should admit the LS arrival by shedding BE, rejected %+v", tr.Rejected)
	}
	shed := 0
	for _, op := range tr.Committed {
		if op.Shed {
			shed++
			if op.Slot != 1 {
				t.Errorf("correct controller shed slot %d, want the BE slot 1", op.Slot)
			}
		}
	}
	if shed != 1 {
		t.Fatalf("correct controller committed %d sheds, want 1 (%+v)", shed, tr.Committed)
	}

	core.ShedLSFirst(t)
	evil, err := verify.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The defect must have actually fired: the arrival was admitted by
	// shedding the LS guest, producing a second epoch.
	if len(evil.Controller.History()) < 2 {
		t.Fatalf("shed defect did not install a new epoch (history %d)", len(evil.Controller.History()))
	}
	for _, v := range verify.CheckAll(evil) {
		if v.Class == verify.ClassContinuity {
			t.Logf("convicted: %s", v)
			return
		}
	}
	t.Fatal("continuity oracle missed the inverted shed order")
}
