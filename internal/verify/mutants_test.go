package verify

import (
	"testing"

	"tableau/internal/trace"
	"tableau/internal/vmm"
)

// mutantCfg generates pure populations: no faults, no replans, no
// blocking workloads — every deviation the oracles report is the
// mutant's doing.
var mutantCfg = Config{FaultPct: -1, ReplanPct: -1, BlockyPct: -1, ChurnPct: -1}

// mutantSeed selects a deterministic scenario with at least two VMs so
// starving one cannot be confused with an empty machine.
func mutantScenario(t *testing.T) *Scenario {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		sc := Generate(seed, mutantCfg)
		if len(sc.VMs) >= 2 && sc.Cores >= 2 {
			return sc
		}
	}
	t.Fatal("no suitable mutant scenario in seed range")
	return nil
}

func classes(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Class]++
	}
	return out
}

// TestMutationSmokeBaseline pins that the mutant scenario is clean
// when unmutated — otherwise the smoke tests below prove nothing.
func TestMutationSmokeBaseline(t *testing.T) {
	sc := mutantScenario(t)
	art, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckAll(art); len(vs) > 0 {
		t.Fatalf("baseline scenario %s not clean: %v", sc, vs)
	}
}

// TestMutationSmokeStarve proves the utilization oracle catches a
// scheduler that silently drops one vCPU's reservations.
func TestMutationSmokeStarve(t *testing.T) {
	sc := mutantScenario(t)
	art, err := runWith(sc, runKnobs{wrap: func(inner vmm.Scheduler) vmm.Scheduler {
		return newStarveMutant(inner, 0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := classes(CheckAll(art))
	if got[ClassUtilization] == 0 {
		t.Fatalf("starve mutant not flagged by the utilization oracle; classes: %v", got)
	}
}

// TestMutationSmokeDelay proves the max-gap oracle catches a scheduler
// that delivers full service but with gaps beyond the blackout bound.
func TestMutationSmokeDelay(t *testing.T) {
	sc := mutantScenario(t)
	delay := 2 * sc.VMs[0].LatencyGoal
	art, err := runWith(sc, runKnobs{wrap: func(inner vmm.Scheduler) vmm.Scheduler {
		return newDelayMutant(inner, 0, delay)
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := classes(CheckAll(art))
	if got[ClassMaxGap] == 0 {
		t.Fatalf("delay mutant not flagged by the max-gap oracle; classes: %v", got)
	}
}

// TestMutationSmokePhantom proves the conservation oracle rejects a
// record stream with fabricated dispatches (double-runs), and that the
// trace-consistency oracle sees trace-derived runtime drift from the
// machine's ground truth.
func TestMutationSmokePhantom(t *testing.T) {
	sc := mutantScenario(t)
	art, err := runWith(sc, runKnobs{wrap: func(inner vmm.Scheduler) vmm.Scheduler {
		return newPhantomMutant(inner, 0, 5)
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := classes(CheckAll(art))
	if got[ClassConservation] == 0 {
		t.Fatalf("phantom mutant not flagged by the conservation oracle; classes: %v", got)
	}
	if got[ClassTraceConsistency] == 0 {
		t.Fatalf("phantom mutant not flagged by the trace-consistency oracle; classes: %v", got)
	}
}

// TestMutationSmokeTamper proves the trace-consistency oracle catches
// a dump that no longer matches the live run — the defect class of a
// codec or ring bug.
func TestMutationSmokeTamper(t *testing.T) {
	sc := mutantScenario(t)
	art, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for ri := range art.Dump.Rings {
		recs := art.Dump.Rings[ri].Records
		for k := range recs {
			if recs[k].Type == trace.EvRunstateChange {
				recs[k].Time += 1_000_000
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Fatal("no runstate record to tamper with")
	}
	got := classes(CheckTraceConsistency(art))
	if got[ClassTraceConsistency] == 0 {
		t.Fatal("tampered dump not flagged by the trace-consistency oracle")
	}
}

// TestShrinkFindsSmallerRepro pins the shrinker: for a deliberately
// failing predicate (the starve mutant), Shrink must return a
// still-failing scenario no larger than the original.
func TestShrinkFindsSmallerRepro(t *testing.T) {
	fails := func(sc *Scenario) bool {
		if len(sc.VMs) == 0 {
			return false
		}
		art, err := runWith(sc, runKnobs{wrap: func(inner vmm.Scheduler) vmm.Scheduler {
			return newStarveMutant(inner, 0)
		}})
		if err != nil {
			return false
		}
		return len(CheckUtilization(art)) > 0
	}
	seed := mutantScenario(t).Seed
	r := Shrink(seed, mutantCfg, fails)
	if r == nil {
		t.Fatal("Shrink returned nil for a failing scenario")
	}
	if !fails(r.Scenario) {
		t.Fatalf("shrunken scenario %s does not fail", r.Scenario)
	}
	orig := Generate(seed, mutantCfg)
	if len(r.Scenario.VMs) > len(orig.VMs) || r.Scenario.Cores > orig.Cores {
		t.Fatalf("shrunken scenario %s is larger than original %s", r.Scenario, orig)
	}
}
