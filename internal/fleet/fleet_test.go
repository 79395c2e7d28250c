package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tableau/internal/planner"
)

func quarter() planner.Util { return planner.Util{Num: 1, Den: 4} }
func big() planner.Util     { return planner.Util{Num: 3, Den: 4} }

func testVM(name string, u planner.Util) VM {
	return VM{Name: name, Util: u, LatencyGoal: 20_000_000}
}

func testArbiter(t *testing.T, cfg Config) *Arbiter {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = planner.NewCache(256)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a
}

func TestPlaceBatchSpreadsAndRegisters(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 4, Cores: 4, Placers: 2})
	vms := make([]VM, 8)
	for i := range vms {
		vms[i] = testVM(fmt.Sprintf("vm%d", i), quarter())
	}
	bs, err := a.PlaceBatch(vms)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Placed != 8 || bs.Unplaced != 0 {
		t.Fatalf("placed %d unplaced %d, want 8/0", bs.Placed, bs.Unplaced)
	}
	asg := a.Assignments()
	if len(asg) != 8 {
		t.Fatalf("registry has %d VMs, want 8", len(asg))
	}
	live := 0
	for _, h := range a.Hosts() {
		live += h.VMs()
	}
	if live != 8 {
		t.Fatalf("hosts hold %d VMs, want 8", live)
	}
	// Worst-fit spreading: with 8 quarter-core VMs over 4 empty 4-core
	// hosts, nobody should be overloaded while another host sits empty.
	for _, h := range a.Hosts() {
		if h.VMs() == 0 {
			t.Fatalf("host %d left empty by worst-fit spreading", h.ID())
		}
	}
}

func TestCommitConflictOnStaleVersion(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 1, Cores: 4, Placers: 1})
	h := a.Hosts()[0]
	snap := h.Snapshot()
	if _, err := h.CommitPlacements(snap.Version, []VM{testVM("a", quarter())}); err != nil {
		t.Fatal(err)
	}
	_, err := h.CommitPlacements(snap.Version, []VM{testVM("b", quarter())})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit returned %v, want ErrConflict", err)
	}
	// A refreshed snapshot commits fine.
	snap = h.Snapshot()
	res, err := h.CommitPlacements(snap.Version, []VM{testVM("b", quarter())})
	if err != nil || len(res.Placed) != 1 {
		t.Fatalf("refreshed commit: %v, placed %v", err, res.Placed)
	}
}

func TestAdmissionRejectSparePoolAndUnplaced(t *testing.T) {
	// Two regular 1-core hosts plus one spare. 3/4-core VMs fill the
	// regulars; the third is rejected by both authoritative admission
	// checks (advisory headroom said nothing fits — the pressure valve
	// probes anyway), sheds into the spare pool, and the fourth finds
	// the whole fleet full.
	a := testArbiter(t, Config{Hosts: 3, Cores: 1, SlotsPerHost: 6, Placers: 2, SpareHosts: 1, MaxAttempts: 4})
	bs, err := a.PlaceBatch([]VM{testVM("a", big()), testVM("b", big())})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Placed != 2 || bs.SparePlacements != 0 {
		t.Fatalf("fill: %+v, want 2 placed on regulars", bs)
	}
	bs, err = a.PlaceBatch([]VM{testVM("c", big())})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Placed != 1 || bs.SparePlacements != 1 {
		t.Fatalf("spare shed: %+v, want 1 spare placement", bs)
	}
	if bs.AdmissionRejects == 0 {
		t.Fatalf("spare shed: %+v, want admission rejects on the regulars", bs)
	}
	bs, err = a.PlaceBatch([]VM{testVM("d", big())})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Placed != 0 || bs.Unplaced != 1 {
		t.Fatalf("overflow: %+v, want 1 unplaced", bs)
	}
	if st := a.Stats(); st.Unplaced != 1 || st.SparePlacements != 1 {
		t.Fatalf("cumulative stats %+v", st)
	}
}

// TestShedAdmitsLSOverBE is the regression test for the class-blind
// shed-retry path: before tenancy classes, an LS arrival on a full
// host burned every attempt on admission rejects and came back
// ErrUnplaced even though a best-effort guest held sheddable capacity.
// Now the host sheds the BE guest — a committed, ledgered departure —
// and admits the LS VM; the shed is surfaced through CommitResult,
// the ledger, the registry, and Stats.Shed. A BE arrival past the
// same edge must still be refused: best-effort has no claim on
// anyone's slack.
func TestShedAdmitsLSOverBE(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 1, Cores: 1, Placers: 1})
	if _, err := a.Place(VM{Name: "be0", Util: big(), LatencyGoal: 20_000_000, Class: planner.BE}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(VM{Name: "be1", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Class: planner.BE}); !errors.Is(err, ErrUnplaced) {
		t.Fatalf("BE arrival past the admission edge returned %v, want ErrUnplaced", err)
	}
	if got := a.Hosts()[0].VMs(); got != 1 {
		t.Fatalf("host holds %d VMs after the rejected BE probe, want just be0", got)
	}

	h, err := a.Place(VM{Name: "ls0", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000})
	if err != nil {
		t.Fatalf("LS arrival returned %v while a BE slot was sheddable", err)
	}
	if h != 0 {
		t.Fatalf("LS arrival landed on host %d, want 0", h)
	}
	asg := a.Assignments()
	if host, live := asg["ls0"]; !live || host != 0 {
		t.Fatalf("registry %v: ls0 must be live on host 0", asg)
	}
	if _, live := asg["be0"]; live {
		t.Fatalf("registry %v: shed be0 must be gone", asg)
	}
	if st := a.Stats(); st.Shed != 1 || st.Unplaced != 1 {
		t.Fatalf("stats %+v, want Shed 1 (be0) and Unplaced 1 (be1)", st)
	}
	ledger := a.Hosts()[0].Ledger()
	last := ledger[len(ledger)-1]
	if !reflect.DeepEqual(last.Placed, []string{"ls0"}) || !reflect.DeepEqual(last.Shed, []string{"be0"}) {
		t.Fatalf("ledger tail placed %v shed %v, want [ls0]/[be0]", last.Placed, last.Shed)
	}
	sheds := 0
	for _, op := range last.Ops {
		if op.Shed {
			sheds++
		}
	}
	if sheds != 1 {
		t.Fatalf("ledger tail ops %+v, want exactly one Shed deactivation", last.Ops)
	}
	// The freed capacity is really free: another quarter-core BE fits.
	if _, err := a.Place(VM{Name: "be2", Util: quarter(), LatencyGoal: 20_000_000, Class: planner.BE}); err != nil {
		t.Fatalf("placement into shed capacity returned %v", err)
	}
}

func TestDepartBatchFreesCapacityAndSlots(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 2, Cores: 2, Placers: 2})
	var vms []VM
	for i := 0; i < 6; i++ {
		vms = append(vms, testVM(fmt.Sprintf("vm%d", i), quarter()))
	}
	if _, err := a.PlaceBatch(vms); err != nil {
		t.Fatal(err)
	}
	names := a.PlacedNames()
	if _, err := a.DepartBatch(names[:4]); err != nil {
		t.Fatal(err)
	}
	if len(a.Assignments()) != 2 {
		t.Fatalf("registry has %d VMs after departures, want 2", len(a.Assignments()))
	}
	// Slots and headroom are recycled: a second full wave fits again.
	var again []VM
	for i := 0; i < 4; i++ {
		again = append(again, testVM(fmt.Sprintf("re%d", i), quarter()))
	}
	bs, err := a.PlaceBatch(again)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Placed != 4 {
		t.Fatalf("re-fill placed %d, want 4", bs.Placed)
	}
	if _, err := a.DepartBatch([]string{"nope"}); err == nil {
		t.Fatal("departing an unknown VM must error")
	}
}

// parallelForEach is a minimal deterministic fan-out (slot-indexed
// results, like experiments.ForEach) for the determinism test.
func parallelForEach(workers int) func(n int, fn func(i int) error) error {
	return func(n int, fn func(i int) error) error {
		errs := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		w := workers
		if w > n {
			w = n
		}
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// runScriptedStorm drives a deterministic fill + churn + surge script
// and returns the end-state fingerprint: cumulative stats, the
// registry, and every host's (version, live-VM) pair.
func runScriptedStorm(t *testing.T, forEach func(int, func(int) error) error) (Stats, map[string]int, [][2]uint64) {
	t.Helper()
	cache := planner.NewCache(512)
	a, err := New(Config{
		Hosts: 12, Cores: 4, SlotsPerHost: 10, Placers: 3,
		SpareHosts: 2, MaxAttempts: 4, Cache: cache, ForEach: forEach,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var fill []VM
	for i := 0; i < 60; i++ {
		u := quarter()
		if i%5 == 0 {
			u = planner.Util{Num: 1, Den: 2}
		}
		fill = append(fill, testVM(fmt.Sprintf("v%d", i), u))
	}
	if _, err := a.PlaceBatch(fill); err != nil {
		t.Fatal(err)
	}
	live := a.PlacedNames()
	var departs []string
	for i := 0; i < len(live); i += 4 {
		departs = append(departs, live[i])
	}
	if _, err := a.DepartBatch(departs); err != nil {
		t.Fatal(err)
	}
	var surge []VM
	for i := 0; i < 30; i++ {
		surge = append(surge, testVM(fmt.Sprintf("g%d", i), big()))
	}
	if _, err := a.PlaceBatch(surge); err != nil {
		t.Fatal(err)
	}

	hostState := make([][2]uint64, 0, 12)
	for _, h := range a.Hosts() {
		s := h.Snapshot()
		hostState = append(hostState, [2]uint64{s.Version, uint64(h.VMs())})
	}
	return a.Stats(), a.Assignments(), hostState
}

func TestPlaceBatchDeterministicAcrossParallelism(t *testing.T) {
	s1, asg1, hosts1 := runScriptedStorm(t, nil) // serial
	for _, workers := range []int{2, 8} {
		s2, asg2, hosts2 := runScriptedStorm(t, parallelForEach(workers))
		if s1 != s2 {
			t.Fatalf("stats differ at %d workers:\nserial   %+v\nparallel %+v", workers, s1, s2)
		}
		if !reflect.DeepEqual(asg1, asg2) {
			t.Fatalf("assignments differ at %d workers", workers)
		}
		if !reflect.DeepEqual(hosts1, hosts2) {
			t.Fatalf("host versions differ at %d workers:\nserial   %v\nparallel %v", workers, hosts1, hosts2)
		}
	}
	if s1.Placed == 0 || s1.AdmissionRejects == 0 {
		t.Fatalf("storm script exercised nothing: %+v", s1)
	}
}

// TestMixedPlaceDepartAllocationCeiling pins what a placement costs in
// garbage when it has to plan: on a filled 64-host fleet, one Place of a
// VM from the benchmark's mix (nearly always a whole-plan cache miss)
// and one Depart stay under 150 objects together — the two plans'
// Results, the two epochs, the cache entries and the ledger, and no
// planner scratch.
func TestMixedPlaceDepartAllocationCeiling(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 64, Cores: 8, Placers: 8, SpareHosts: 4, MaxAttempts: 4, Cache: planner.NewCache(4096)})
	vm := mixedShapeVMs(1)
	var live []string
	for i := 0; i < 64*25/4; i++ {
		name := fmt.Sprintf("w%d", i)
		if _, err := a.Place(vm(name)); err != nil {
			t.Fatal(err)
		}
		live = append(live, name)
	}
	const runs = 300
	arrivals := make([]VM, 0, runs+1) // AllocsPerRun warms up with one extra run
	for i := 0; i <= runs; i++ {
		arrivals = append(arrivals, vm(fmt.Sprintf("v%d", i)))
		live = append(live, arrivals[i].Name)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := a.Place(arrivals[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.Depart(live[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 150 {
		t.Errorf("a mixed-shape Place+Depart pair allocates %.0f objects, ceiling 150", allocs)
	}
	t.Logf("%.0f objects per pair", allocs)
}
