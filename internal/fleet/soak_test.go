package fleet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/planner"
	"tableau/internal/verify"
)

// runFailoverStorm drives seeded crash storms through a journaled
// fleet mid-churn and returns the arbiter plus the accumulated
// failover stats. failStopPct steers the recover-vs-evacuate mix.
func runFailoverStorm(t *testing.T, seed int64, failStopPct int) (*fleet.Arbiter, fleet.Stats) {
	t.Helper()
	const hosts = 12
	a, err := fleet.New(fleet.Config{
		Hosts: hosts, Cores: 4, SlotsPerHost: 10, Placers: 3,
		SpareHosts: 2, MaxAttempts: 4, Cache: planner.NewCache(256),
		Journal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	rng := rand.New(rand.NewSource(seed))
	// Dense menu (up to 3/4-core) and a near-capacity fill: evacuation
	// then really runs under pressure, so LS evacuees trigger
	// best-effort sheds on full hosts and unplaceable tails go lost —
	// both truthfully accounted or the oracle flags it.
	utils := []planner.Util{{Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 3, Den: 4}}
	mkVMs := func(prefix string, n int) []fleet.VM {
		vms := make([]fleet.VM, n)
		for i := range vms {
			vms[i] = fleet.VM{
				Name:        fmt.Sprintf("s%d-%s%d", seed, prefix, i),
				Util:        utils[rng.Intn(len(utils))],
				LatencyGoal: 20_000_000,
			}
		}
		for i := range vms {
			if rng.Intn(100) < 40 {
				vms[i].Class = planner.BE
			}
		}
		return vms
	}

	if _, err := a.PlaceBatch(mkVMs("v", 60+rng.Intn(20))); err != nil {
		t.Fatal(err)
	}
	var total fleet.Stats
	for storm := 0; storm < 2; storm++ {
		plan, err := faults.GenerateHostCrashPlan(rng.Int63(), hosts, 2+rng.Intn(2), failStopPct, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ArmCrashes(plan); err != nil {
			t.Fatal(err)
		}
		// Churn while armed: the crashes fire as commit traffic reaches
		// the planned appends. Departures hitting a downed host defer.
		live := a.PlacedNames()
		n := len(live) / 4
		perm := rng.Perm(len(live))
		departs := make([]string, n)
		for i := 0; i < n; i++ {
			departs[i] = live[perm[i]]
		}
		if _, err := a.DepartBatch(departs); err != nil {
			t.Fatal(err)
		}
		if _, err := a.PlaceBatch(mkVMs(fmt.Sprintf("c%d-", storm), n+6+rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
		st, err := a.Failover()
		if err != nil {
			t.Fatal(err)
		}
		total.HostsDown += st.HostsDown
		total.Recovered += st.Recovered
		total.Displaced += st.Displaced
		total.Evacuated += st.Evacuated
		total.EvacSheds += st.EvacSheds
		total.Lost += st.Lost
		total.Shed += st.Shed
	}
	return a, total
}

// TestFailoverSoak soaks the failure-seam oracle: 200 seeded crash
// storms (40 under -short) at a swept recover-vs-evacuate mix, each
// checked for zero continuity violations across the crash, recover and
// evacuate seams. The soak must actually exercise both resolution
// paths and displace real guests, or it has no teeth.
func TestFailoverSoak(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var agg fleet.Stats
	for seed := 0; seed < seeds; seed++ {
		// Sweep the fail-stop share so every mix band recurs: pure
		// recovery, mixed, and pure evacuation storms.
		failStopPct := []int{0, 35, 65, 100}[seed%4]
		a, st := runFailoverStorm(t, int64(seed), failStopPct)
		if vs := verify.CheckFleet(a); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: %d failure-seam violations", seed, len(vs))
		}
		agg.HostsDown += st.HostsDown
		agg.Recovered += st.Recovered
		agg.Displaced += st.Displaced
		agg.Evacuated += st.Evacuated
		agg.EvacSheds += st.EvacSheds
		agg.Lost += st.Lost
	}
	if agg.HostsDown == 0 || agg.Recovered == 0 || agg.Evacuated == 0 || agg.Displaced == 0 {
		t.Fatalf("soak teeth lost: %d down, %d recovered, %d evacuated, %d displaced — some path never ran", agg.HostsDown, agg.Recovered, agg.Evacuated, agg.Displaced)
	}
	if agg.EvacSheds == 0 || agg.Lost == 0 {
		t.Fatalf("soak teeth lost: %d evac sheds, %d lost — evacuation never ran under pressure", agg.EvacSheds, agg.Lost)
	}
}

// TestMutationSmokeEvacuateBEFirst arms the evacuation-order mutant
// (evacuation re-places the best-effort wave first) and demands the
// cross-seam oracle convict it on some seed whose ledgers were cut, so
// the conviction holds over bounded state.
func TestMutationSmokeEvacuateBEFirst(t *testing.T) {
	fleet.EvacuateBEFirst(t)
	caught := false
	for seed := int64(0); seed < 12 && !caught; seed++ {
		// Pure fail-stop storms: every down host evacuates, maximizing
		// seams with both classes displaced.
		a, _ := runFailoverStorm(t, seed, 100)
		vs := verify.CheckFleet(a)
		if caught = len(vs) > 0 && ledgerCut(a); caught {
			t.Logf("seed %d convicted: %s", seed, vs[0])
		}
	}
	if !caught {
		t.Fatal("the BE-first evacuation escaped the failure-seam oracle on every seed whose ledgers were cut")
	}
}

// ledgerCut reports whether some host has cut its ledger onto its base.
func ledgerCut(a *fleet.Arbiter) bool {
	for _, h := range a.Hosts() {
		if h.Retained().Base.Seq > 0 {
			return true
		}
	}
	return false
}
