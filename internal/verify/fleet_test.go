package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"tableau/internal/fleet"
	"tableau/internal/planner"
)

// runFleetStorm drives one seeded random churn storm through a small
// fleet and returns the arbiter for the oracle to inspect. With defect
// set, every batch is followed by the double-place mutant.
func runFleetStorm(t *testing.T, seed int64, defect bool) *fleet.Arbiter {
	t.Helper()
	a, err := fleet.New(fleet.Config{
		Hosts: 10, Cores: 4, SlotsPerHost: 10, Placers: 3,
		SpareHosts: 2, MaxAttempts: 4, Cache: planner.NewCache(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	place := func(vms []fleet.VM) {
		t.Helper()
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if defect {
			doublePlace(a, vms)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	utils := []planner.Util{{Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 3, Den: 4}}
	mkVMs := func(prefix string, n int) []fleet.VM {
		vms := make([]fleet.VM, n)
		for i := range vms {
			vms[i] = fleet.VM{
				Name:        fmt.Sprintf("s%d-%s%d", seed, prefix, i),
				Util:        utils[rng.Intn(len(utils))],
				LatencyGoal: 20_000_000,
			}
		}
		// Class draw last, after every structural draw: ~40% best-effort,
		// so the surge waves trigger real class-aware sheds on full hosts.
		for i := range vms {
			if rng.Intn(100) < 40 {
				vms[i].Class = planner.BE
			}
		}
		return vms
	}

	place(mkVMs("v", 20+rng.Intn(25)))
	for round := 0; round < 2; round++ {
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
		place(mkVMs(fmt.Sprintf("c%d-", round), n+rng.Intn(8)))
	}
	// A surge of big VMs past the admission edge: rejects, spare-pool
	// sheds and unplaced tails must all leave the ledgers consistent.
	place(mkVMs("g", 12+rng.Intn(10)))
	return a
}

// doublePlace is the double-place mutant: it commits the first VM of a
// placed batch to a second Up host behind the registry's back, so the
// VM is live on two hosts.
func doublePlace(a *fleet.Arbiter, batch []fleet.VM) {
	asg := a.Assignments()
	for _, vm := range batch {
		home, ok := asg[vm.Name]
		if !ok {
			continue
		}
		for _, h := range a.Hosts() {
			if h.ID() == home {
				continue
			}
			snap := h.Snapshot()
			if snap.State != fleet.HostUp || snap.FreeSlots == 0 {
				continue
			}
			if res, err := h.CommitPlacements(snap.Version, []fleet.VM{vm}); err == nil && len(res.Placed) == 1 {
				return
			}
		}
		return
	}
}

// TestCheckFleetSeeds soaks the cross-host continuity oracle: 120
// seeded random mixed-class churn storms (30 under -short), each
// replayed through CheckFleet — every admitted VM must be live on
// exactly one host at every epoch seam, every host's guarantee history
// must track its committed ledger exactly, and every shed must name a
// best-effort guest that was live on the shedding host. The soak must
// actually exercise the shed path across the seed set.
func TestCheckFleetSeeds(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	var sheds int64
	for seed := 0; seed < seeds; seed++ {
		a := runFleetStorm(t, int64(seed), false)
		if vs := CheckFleet(a); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: %d fleet continuity violations", seed, len(vs))
		}
		sheds += a.Stats().Shed
	}
	if sheds == 0 {
		t.Fatal("no storm exercised the class-aware shed path — the soak lost its teeth")
	}
}

// TestCheckFleetCatchesDoublePlace arms the double-place mutant (a VM
// committed to a second host behind the registry's back) and
// demands the oracle convict it — on a storm long enough that hosts
// have cut their ledgers, so the conviction holds over bounded state.
func TestCheckFleetCatchesDoublePlace(t *testing.T) {
	caught := false
	for seed := int64(0); seed < 5 && !caught; seed++ {
		a := runFleetStorm(t, seed, true)
		vs := CheckFleet(a)
		if caught = len(vs) > 0 && ledgersTrimmed(a); caught {
			t.Logf("seed %d convicted: %s", seed, vs[0])
		}
	}
	if !caught {
		t.Fatal("the double placement escaped the fleet continuity oracle on every seed whose ledgers were cut")
	}
}
