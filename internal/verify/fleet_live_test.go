package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/planner"
)

// TestLiveFleetUnderOracle puts the live concurrent path under the
// oracle the deterministic batch rounds are checked by: 64 journaled
// hosts, six goroutines placing and departing mixed-class VMs through
// Place/Depart — every pick a lock-free read of the headroom board
// while other goroutines' commits publish to it — and a seventh arming
// seeded crash storms (recoverable and fail-stop) and running Failover
// under that traffic. Whatever interleaving the scheduler (and -race)
// produces, the merged ledgers must replay with no VM live on two
// hosts, no survivor lost across a seam, and the registry equal to the
// replayed owner map. It lives here, not in internal/fleet, because
// CheckFleet imports fleet.
func TestLiveFleetUnderOracle(t *testing.T) {
	const hosts, workers = 64, 6
	perWorker := 80
	if testing.Short() {
		perWorker = 30
	}
	a, err := fleet.New(fleet.Config{
		Hosts: hosts, Cores: 4, SlotsPerHost: 10, Placers: 8,
		SpareHosts: 4, MaxAttempts: 4, Cache: planner.NewCache(512),
		Journal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	utils := []planner.Util{{Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 3, Den: 4}}
	var ops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var live []string
			for i := 0; i < perWorker; i++ {
				ops.Add(1)
				vm := fleet.VM{Name: fmt.Sprintf("g%d-vm%d", g, i), Util: utils[rng.Intn(len(utils))], LatencyGoal: 20_000_000}
				if rng.Intn(100) < 40 {
					vm.Class = planner.BE
				}
				switch _, err := a.Place(vm); {
				case err == nil:
					live = append(live, vm.Name)
				case !errors.Is(err, fleet.ErrUnplaced):
					t.Errorf("Place(%s): %v", vm.Name, err)
					return
				}
				if len(live) == 0 || rng.Intn(2) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				switch err := a.Depart(live[k]); {
				case errors.Is(err, fleet.ErrHostDown):
					// Deferred: the VM stays registered until Failover
					// resolves its host; try again some other time.
					continue
				case err != nil && !strings.Contains(err.Error(), "unknown VM"):
					t.Errorf("Depart(%s): %v", live[k], err)
					return
				}
				// Departed — or already gone: shed for an LS arrival, lost in
				// an evacuation, or in flight between two hosts of one.
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var total fleet.Stats
	storm := func(seed int64) {
		plan, err := faults.GenerateHostCrashPlan(seed, hosts, 4, 35, 3)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := a.ArmCrashes(plan); err != nil {
			t.Error(err)
		}
	}
	failover := func() {
		st, err := a.Failover()
		if err != nil {
			t.Errorf("Failover: %v", err)
		}
		total.HostsDown += st.HostsDown
		total.Recovered += st.Recovered
		total.Evacuated += st.Evacuated
	}
	for seed, running := int64(1), true; running; seed++ {
		storm(seed)
		// Let the armed crashes meet commit traffic before sweeping.
		for target := ops.Load() + 25; running && ops.Load() < target; {
			select {
			case <-done:
				running = false
			default:
				runtime.Gosched()
			}
		}
		failover()
	}
	failover() // hosts the last evacuation's own traffic took down

	if total.HostsDown == 0 || total.Recovered == 0 {
		t.Fatalf("failover totals %+v: no crash fired under the live traffic — the test lost its teeth", total)
	}
	if vs := CheckFleet(a); len(vs) != 0 {
		for _, v := range vs {
			t.Error(v)
		}
		t.Fatalf("%d fleet continuity violations on the live concurrent path", len(vs))
	}
	held := 0
	for _, h := range a.Hosts() {
		if h.State() == fleet.HostUp { // a dead host keeps its evacuated guests' slots
			held += h.VMs()
		}
	}
	if asg := a.Assignments(); held != len(asg) {
		t.Fatalf("up hosts hold %d VMs, the registry %d", held, len(asg))
	}
}

// TestCheckFleetAfterDuplicatePlace replays the duplicate-placement bug
// through the oracle: placing a live name again used to commit it to a
// second host ("placed on host B while live on host A"). The arbiter
// now refuses with ErrDuplicate before touching a host, so the ledgers
// stay clean — through Place and PlaceBatch both.
func TestCheckFleetAfterDuplicatePlace(t *testing.T) {
	a, err := fleet.New(fleet.Config{Hosts: 4, Cores: 4, Placers: 2, Cache: planner.NewCache(64)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	vm := fleet.VM{Name: "x", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000}
	if _, err := a.Place(vm); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(vm); !errors.Is(err, fleet.ErrDuplicate) {
		t.Errorf("second Place(x): %v, want ErrDuplicate", err)
	}
	if _, err := a.PlaceBatch([]fleet.VM{vm}); !errors.Is(err, fleet.ErrDuplicate) {
		t.Errorf("PlaceBatch([x]): %v, want ErrDuplicate", err)
	}
	for _, v := range CheckFleet(a) {
		t.Error(v)
	}
	if names := a.PlacedNames(); len(names) != 1 {
		t.Errorf("placed names %v, want x once", names)
	}
}
