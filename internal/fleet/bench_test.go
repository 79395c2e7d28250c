package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/planner"
)

// BenchmarkFleetPlace measures steady-state placement throughput
// through the live optimistic protocol (ns/op is the inverse
// placements/sec), with the conflict-retry rate reported alongside:
// each iteration places one eighth-core VM and departs the oldest of
// the 200 in flight, so the fleet sits at a realistic occupancy while
// board reads, commits, and the occasional shed-retry all stay on the
// hot path. Host ledgers grow with every commit, so a single
// long-lived fleet would make B/op drift with b.N; the fleet is
// rebuilt outside the timer every few thousand iterations to keep the
// measurement stationary.
func BenchmarkFleetPlace(b *testing.B) { benchFleetPlace(b, 32, oneShapeVM) }

// BenchmarkFleetPlaceScaling is BenchmarkFleetPlace at fleet sizes
// where O(hosts) work per placement would show — the 32-host sibling is
// blind to it. Fill ratio (6.25 VMs per host) and spare share (1/16)
// are the sibling's, so the three sizes differ in host count alone:
// with the home partition strided on the headroom board, ns/op and
// B/op should be nearly flat from 256 to 4000 hosts (DESIGN.md §12
// records the before/after).
func BenchmarkFleetPlaceScaling(b *testing.B) {
	for _, hosts := range []int{256, 1000, 4000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) { benchFleetPlace(b, hosts, oneShapeVM) })
	}
}

// BenchmarkFleetPlaceMixed is the 1000-host sibling on the end-to-end
// benchmark's VM mix (four sizes, three latency goals, a quarter
// best-effort). The one-shape siblings place the same VM every time, so
// each host's population recurs and every plan is a cache hit; with the
// mix a host's exact population almost never recurs and nearly every
// commit plans from scratch — the cost a mixed-shape Place actually
// pays, which the siblings cannot see.
func BenchmarkFleetPlaceMixed(b *testing.B) {
	benchFleetPlace(b, 1000, mixedShapeVMs(1))
}

// mixedShapeVMs draws VMs from the end-to-end benchmark's mix.
func mixedShapeVMs(seed int64) func(name string) VM {
	rng := rand.New(rand.NewSource(seed))
	utils := []planner.Util{{Num: 1, Den: 16}, {Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	goals := []int64{5_000_000, 10_000_000, 20_000_000}
	return func(name string) VM {
		vm := VM{Name: name, Util: utils[rng.Intn(len(utils))], LatencyGoal: goals[rng.Intn(len(goals))]}
		if rng.Intn(4) == 0 {
			vm.Class = planner.BE
		}
		return vm
	}
}

func oneShapeVM(name string) VM {
	return VM{Name: name, Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000}
}

func benchFleetPlace(b *testing.B, hosts int, vm func(name string) VM) {
	cache := planner.NewCache(4096)
	var (
		a         *Arbiter
		live      []string // FIFO of in-flight names
		conflicts int64
	)
	rebuild := func(gen int) {
		if a != nil {
			st := a.Stats()
			conflicts += st.Conflicts + st.Retries
			_ = a.Close()
		}
		var err error
		a, err = New(Config{
			Hosts: hosts, Cores: 8, Placers: 8, SpareHosts: hosts / 16, MaxAttempts: 4,
			Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		live = live[:0]
		for j := 0; j < hosts*25/4; j++ {
			name := fmt.Sprintf("w%d-%d", gen, j)
			if _, err := a.Place(vm(name)); err != nil {
				b.Fatal(err)
			}
			live = append(live, name)
		}
		// Collect the previous fleet now: at 4000 hosts it is a gigabyte,
		// and a cycle marking that inside the timed loop would be the
		// whole measurement.
		runtime.GC()
	}
	rebuild(0)
	defer func() { _ = a.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%1024 == 0 {
			b.StopTimer()
			rebuild(i)
			b.StartTimer()
		}
		name := fmt.Sprintf("b%d", i)
		if _, err := a.Place(vm(name)); err != nil {
			b.Fatal(err)
		}
		live = append(live, name)
		if err := a.Depart(live[0]); err != nil {
			b.Fatal(err)
		}
		live = live[1:]
	}
	b.StopTimer()
	st := a.Stats()
	conflicts += st.Conflicts + st.Retries
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflict-retries/op")
}

// BenchmarkFailover measures the cost of a steady fleet absorbing one
// host crash: each iteration arms a recoverable torn-write crash on a
// rotating victim, fires it with a doomed commit, and runs the
// arbiter's Failover sweep (crash seam, journal replay, rejoin flush).
// displaced-vms/op is the guests riding through each recovery. Each
// crash/recover cycle appends to the victim's journal and recovery
// replays it whole, so a single long-lived fleet would make allocs/op
// grow with b.N; the fleet is rebuilt outside the timer every few
// dozen iterations to keep the measurement stationary.
func BenchmarkFailover(b *testing.B) {
	cache := planner.NewCache(4096)
	var vms []VM
	for i := 0; i < 56; i++ {
		vm := VM{Name: fmt.Sprintf("f%d", i), Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000}
		if i%3 == 0 {
			vm.Class = planner.BE
		}
		vms = append(vms, vm)
	}
	var a *Arbiter
	rebuild := func() {
		if a != nil {
			_ = a.Close()
		}
		var err error
		a, err = New(Config{
			Hosts: 8, Cores: 8, SlotsPerHost: 20, Placers: 4, SpareHosts: 1,
			MaxAttempts: 6, Cache: cache, Journal: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if bs, err := a.PlaceBatch(vms); err != nil || bs.Placed != int64(len(vms)) {
			b.Fatalf("fill: %+v %v", bs, err)
		}
	}
	rebuild()
	defer func() { _ = a.Close() }()
	doomed := func(i int) VM {
		return VM{Name: fmt.Sprintf("doom%d", i), Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var displaced int64
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		h := a.hosts[i%7] // regular hosts; the spare backfills nobody here
		if err := h.Arm(faults.CrashPlan{Kind: faults.CrashTorn, AtAppend: 1, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := h.CommitPlacements(h.Snapshot().Version, []VM{doomed(i)}); !errors.Is(err, ErrHostDown) {
			b.Fatalf("doomed commit: %v", err)
		}
		st, err := a.Failover()
		if err != nil {
			b.Fatal(err)
		}
		if st.Recovered != 1 {
			b.Fatalf("iteration %d: recovered %d hosts, want 1", i, st.Recovered)
		}
		displaced += st.Displaced
	}
	b.StopTimer()
	b.ReportMetric(float64(displaced)/float64(b.N), "displaced-vms/op")
}
