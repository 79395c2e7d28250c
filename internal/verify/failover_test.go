package verify

import (
	"fmt"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/planner"
)

// TestCheckFleetEdges covers the oracle's degenerate inputs: a
// single-host fleet (no cross-host seam at all), an empty ledger
// (nothing ever placed), and a fleet whose every VM has departed.
func TestCheckFleetEdges(t *testing.T) {
	t.Run("single-host", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 1, Cores: 4, SlotsPerHost: 8, Placers: 1, Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		vms := []fleet.VM{
			{Name: "a", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
			{Name: "b", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Class: planner.BE},
		}
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if err := a.Hosts()[0].Arm(faults.CrashPlan{Kind: faults.CrashTorn, AtAppend: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// The crashing departure defers; recovery brings the only host
		// back and the deferred departure then resolves.
		if err := a.Depart("a"); err == nil {
			t.Fatal("departure on the crashing host should defer")
		}
		if st, err := a.Failover(); err != nil || st.Recovered != 1 {
			t.Fatalf("failover: %+v %v", st, err)
		}
		if err := a.Depart("a"); err != nil {
			t.Fatal(err)
		}
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("single-host fleet: %v", vs)
		}
	})
	t.Run("empty-ledger", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 3, Cores: 2, Placers: 1, SpareHosts: 1, Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("empty fleet: %v", vs)
		}
	})
	t.Run("all-departed", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 3, Cores: 4, SlotsPerHost: 8, Placers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		var vms []fleet.VM
		for i := 0; i < 9; i++ {
			vms = append(vms, fleet.VM{Name: fmt.Sprintf("d%d", i), Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000})
		}
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if _, err := a.DepartBatch(a.PlacedNames()); err != nil {
			t.Fatal(err)
		}
		if len(a.Assignments()) != 0 {
			t.Fatal("registry not empty after departing everything")
		}
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("all-departed fleet: %v", vs)
		}
	})
}
