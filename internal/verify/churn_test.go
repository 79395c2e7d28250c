package verify

import (
	"testing"

	"tableau/internal/planner"
)

// TestGenerateChurnShape checks the structural contract of generated
// churn scenarios: ops stay inside the disturbance window, never touch
// slot 0, target only registered slots, and every churn scenario
// carries at least one spare.
func TestGenerateChurnShape(t *testing.T) {
	cfg := Config{ChurnPct: 100}
	churny := 0
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, cfg)
		if len(sc.Churn) == 0 {
			continue
		}
		churny++
		if len(sc.Spares) == 0 {
			t.Errorf("seed %d: churn without spares", seed)
		}
		for _, op := range sc.Churn {
			if op.At < faultEarliest || op.At >= faultLatest {
				t.Errorf("seed %d: churn op at %d outside [%d,%d)", seed, op.At, faultEarliest, faultLatest)
			}
			if op.Slot == 0 && !op.Activate {
				t.Errorf("seed %d: churn departs slot 0", seed)
			}
			if op.Slot < 0 || op.Slot >= sc.NumSlots() {
				t.Errorf("seed %d: churn targets unknown slot %d of %d", seed, op.Slot, sc.NumSlots())
			}
		}
		for _, sp := range sc.Spares {
			if sp.Workload != Hog {
				t.Errorf("seed %d: spare %s is not a hog", seed, sp.Name)
			}
		}
	}
	if churny < 150 {
		t.Fatalf("only %d/200 seeds produced churn at ChurnPct=100", churny)
	}
}

// TestChurnContinuity soaks the continuity oracle over seeded churn
// storms: every scenario runs through the transactional Controller and
// must come back violation-free — admitted VMs keep their guarantees
// across epochs, and no gap exceeds the summed analytical blackout
// bound. 200 scenarios in full mode (the acceptance floor), 50 under
// -short.
func TestChurnContinuity(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 50
	}
	cfg := Config{ChurnPct: 100}
	ran, withCtrl := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed, cfg)
		art, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc, err)
		}
		ran++
		if art.Controller != nil {
			withCtrl++
			if len(art.Controller.History()) == 0 {
				t.Errorf("seed %d: controller with empty epoch history", seed)
			}
		}
		for _, v := range CheckAll(art) {
			t.Errorf("seed %d (%s): %s", seed, sc, v)
		}
	}
	if withCtrl < ran/2 {
		t.Fatalf("only %d/%d scenarios exercised the controller path", withCtrl, ran)
	}
}

// TestTenancyContinuity soaks the class-aware oracles over seeded
// mixed-class churn storms: across every storm, LS guarantees that
// admission accepted survive, every BE absence is explained by a
// committed deactivation, and no shed ever takes an LS slot while a BE
// guest remains. The class draw rides after every structural draw, so
// these are the same storms TestChurnContinuity replays, relabeled.
// 200 scenarios in full mode (the acceptance floor), 50 under -short.
func TestTenancyContinuity(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 50
	}
	cfg := Config{ChurnPct: 100, BEPct: 50}
	mixed, sheds := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed, cfg)
		ls, be := 0, 0
		for slot := 0; slot < sc.NumSlots(); slot++ {
			if sc.VM(slot).Class == planner.BE {
				be++
			} else {
				ls++
			}
		}
		if ls > 0 && be > 0 {
			mixed++
		}
		art, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc, err)
		}
		for _, ct := range art.Transitions {
			for _, op := range ct.Tr.Committed {
				if op.Shed {
					sheds++
				}
			}
		}
		for _, v := range CheckAll(art) {
			t.Errorf("seed %d (%s): %s", seed, sc, v)
		}
	}
	if mixed < int(n)/2 {
		t.Fatalf("only %d/%d scenarios drew a mixed-class population at BEPct=50", mixed, n)
	}
	if sheds == 0 {
		t.Fatal("no storm exercised the shed path — the soak lost its teeth")
	}
}

// TestChurnTransitionsRecorded spot-checks the run wiring: a churn
// scenario's flushes land in Artifacts.Transitions in time order, and
// committed transitions correspond to monotonically increasing epochs.
func TestChurnTransitionsRecorded(t *testing.T) {
	cfg := Config{ChurnPct: 100}
	checked := 0
	for seed := int64(1); seed <= 40 && checked < 10; seed++ {
		sc := Generate(seed, cfg)
		if len(sc.Churn) == 0 {
			continue
		}
		art, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checked++
		if art.Controller == nil {
			t.Fatalf("seed %d: churn scenario ran without a controller", seed)
		}
		var lastAt int64
		var lastVer uint64
		for _, ct := range art.Transitions {
			if ct.At < lastAt {
				t.Errorf("seed %d: transitions out of time order", seed)
			}
			lastAt = ct.At
			if ct.Tr.Version != 0 {
				if ct.Tr.Version <= lastVer {
					t.Errorf("seed %d: committed epoch versions not increasing: %d after %d",
						seed, ct.Tr.Version, lastVer)
				}
				lastVer = ct.Tr.Version
			}
		}
	}
	if checked == 0 {
		t.Fatal("no churn scenarios found in the first 40 seeds")
	}
}
