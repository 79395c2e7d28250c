package main

import (
	"errors"
	"fmt"
	"math/rand"

	"tableau/internal/core"
	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/verify"
)

// fleetParams sizes one of the two fleet workloads. Both drive the live
// single-VM protocol (Arbiter.Place / Arbiter.Depart) in a closed loop
// with one client; they differ in fleet size and in whether commits are
// journaled and hosts crash.
type fleetParams struct {
	name          string
	hosts, spares int
	journal       bool
	fill          int // VMs resident before the loop starts
	warm          int // place+depart pairs before measuring
	pairs         int // measured place+depart pairs at the default run length
	failoverEvery int // pairs between crash+Failover rounds (0: never)
}

var fleetPlace1k = fleetParams{
	name: "fleet-place-1k", hosts: 1000, spares: 20,
	fill: 6000, warm: 1500, pairs: 4800,
}

var fleetDurable256 = fleetParams{
	name: "fleet-durable-256", hosts: 256, spares: 5, journal: true,
	fill: 1536, warm: 1200, pairs: 4800, failoverEvery: 100,
}

// victimStride spaces successive crash victims; coprime with both
// fleets' regular-host counts (980 and 251).
const victimStride = 97

var (
	fleetUtils = []planner.Util{{Num: 1, Den: 16}, {Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	fleetGoals = []int64{5_000_000, 10_000_000, 20_000_000}
)

// genVM draws one fleet VM: four reservation sizes, three latency
// goals, a quarter best-effort — regularly sized cloud instances, so
// host populations repeat and the shared planner cache has something to
// hit.
func genVM(rng *rand.Rand, name string) fleet.VM {
	vm := fleet.VM{
		Name:        name,
		Util:        fleetUtils[rng.Intn(len(fleetUtils))],
		LatencyGoal: fleetGoals[rng.Intn(len(fleetGoals))],
	}
	if rng.Intn(4) == 0 {
		vm.Class = planner.BE
	}
	return vm
}

func (p fleetParams) run(cfg runConfig, rec *recorder) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	pairs := cfg.scale(p.pairs)

	// Inputs first: the product only ever sees generated VMs, and name
	// formatting stays out of the measured allocation figures.
	fillVMs := make([]fleet.VM, p.fill)
	for i := range fillVMs {
		fillVMs[i] = genVM(rng, fmt.Sprintf("f%d", i))
	}
	loopVMs := make([]fleet.VM, p.warm+pairs)
	for i := range loopVMs {
		loopVMs[i] = genVM(rng, fmt.Sprintf("v%d", i))
	}
	failovers := 0
	if p.failoverEvery > 0 {
		failovers = pairs / p.failoverEvery
	}
	doomed := make([]fleet.VM, failovers)
	for i := range doomed {
		doomed[i] = genVM(rng, fmt.Sprintf("doom%d", i))
	}

	cache := planner.NewCache(4096)
	var a *fleet.Arbiter
	if !rec.call("fleet.New", func() bool {
		var err error
		a, err = fleet.New(fleet.Config{
			Hosts: p.hosts, Cores: 8, Placers: 8, SpareHosts: p.spares,
			MaxAttempts: 4, Cache: cache, Journal: p.journal,
		})
		return err == nil
	}) {
		return fmt.Errorf("%s: building the fleet failed", p.name)
	}
	defer a.Close()

	live := make([]string, 0, p.fill+1)
	for _, vm := range fillVMs {
		vm := vm
		if !rec.call("fleet.Place", func() bool { _, err := a.Place(vm); return err == nil }) {
			return fmt.Errorf("%s: fill placement of %s failed", p.name, vm.Name)
		}
		live = append(live, vm.Name)
	}

	rec.reserve("fleet.Place", pairs)
	rec.reserve("fleet.Depart", pairs)
	rec.reserve("fleet.Failover", failovers)
	hosts := a.Hosts()
	regular := p.hosts - p.spares
	var st0 fleet.Stats
	var ct0 core.Stats
	var cs0 planner.CacheStats
	var displaced int64
	probe := newFleetProbe(rec, a)

	for i, vm := range loopVMs {
		if i == p.warm {
			st0, ct0, cs0 = a.Stats(), a.ControllerTotals(), cache.FullStats()
			rec.beginMeasure()
		}
		op := i - p.warm
		rec.tr.setOp(op)
		vm := vm
		if rec.call("fleet.Place", func() bool { _, err := a.Place(vm); return err == nil }) {
			live = append(live, vm.Name)
		}
		k := rng.Intn(len(live))
		victim := live[k]
		if rec.call("fleet.Depart", func() bool { return a.Depart(victim) == nil }) {
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op >= 0 && p.failoverEvery > 0 && (op+1)%p.failoverEvery == 0 {
			round := (op+1)/p.failoverEvery - 1
			// Victims stride through the regular hosts, so a pass samples
			// the whole fleet and not its busiest low-id corner.
			h := hosts[round*victimStride%regular]
			// A torn write on the next append: the doomed commit fires it,
			// the host goes down, and Failover replays the surviving image.
			var armErr, fireErr error
			rec.span("fleet.Host.Arm", func() {
				armErr = h.Arm(faults.CrashPlan{Kind: faults.CrashTorn, AtAppend: 1, Seed: int64(round) + 1})
			})
			rec.span("fleet.Host.CommitPlacements", func() {
				_, fireErr = h.CommitPlacements(h.Snapshot().Version, []fleet.VM{doomed[round]})
			})
			if armErr != nil || !errors.Is(fireErr, fleet.ErrHostDown) {
				return fmt.Errorf("%s: crash round %d did not take host %d down: arm=%v commit=%v", p.name, round, h.ID(), armErr, fireErr)
			}
			rec.call("fleet.Failover", func() bool {
				fs, err := a.Failover()
				displaced += fs.Displaced
				return err == nil && fs.Recovered == 1 && fs.Lost == 0
			})
		}
		if op >= 0 && op%probeEvery == 0 {
			probe.sample()
		}
	}
	rec.endMeasure()

	// Counters of the measured phase. All of them are functions of the
	// seed, so they go into exact and are compared across passes.
	st, ct, cs := a.Stats(), a.ControllerTotals(), cache.FullStats()
	kop := float64(pairs) / 1000
	places := float64(st.Placed - st0.Placed + st.Unplaced - st0.Unplaced)
	x := rec.exact
	x["fleet.attempts_per_place"] = 1 + float64(st.Retries-st0.Retries)/places
	x["fleet.conflicts_per_kop"] = float64(st.Conflicts-st0.Conflicts) / kop
	x["fleet.retries_per_kop"] = float64(st.Retries-st0.Retries) / kop
	x["fleet.admission_rejects_per_kop"] = float64(st.AdmissionRejects-st0.AdmissionRejects) / kop
	x["fleet.slot_rejects_per_kop"] = float64(st.SlotRejects-st0.SlotRejects) / kop
	x["fleet.spare_placements_per_kop"] = float64(st.SparePlacements-st0.SparePlacements) / kop
	x["fleet.sheds_per_kop"] = float64(st.Shed-st0.Shed) / kop
	x["fleet.unplaced"] = float64(st.Unplaced - st0.Unplaced)
	x["fleet.lost"] = float64(st.Lost - st0.Lost)
	x["fleet.departs_deferred"] = float64(st.DepartsDeferred - st0.DepartsDeferred)
	if failovers > 0 {
		x["fleet.displaced_per_failover"] = float64(displaced) / float64(failovers)
	}
	flushes := float64(ct.Flushes - ct0.Flushes)
	x["core.planner_calls_per_flush"] = float64(ct.PlannerCalls-ct0.PlannerCalls) / flushes
	x["core.rollbacks"] = float64(ct.Rollbacks - ct0.Rollbacks)
	x["core.rejections"] = float64(ct.Rejections - ct0.Rejections)
	x["core.ops_coalesced"] = float64(ct.OpsCoalesced - ct0.OpsCoalesced)
	cacheExact(x, cs0, cs)

	// Ledger and history sizes are what live_heap_mb on the fleet
	// workloads is made of; the journal figures come from the newest
	// crash seam's frozen image, the only journal bytes a host exposes.
	var ledger, epochs int
	var image []byte
	var imageSeq uint64
	for _, h := range hosts {
		lg := h.Ledger()
		ledger += len(lg)
		epochs += len(h.History())
		for _, c := range lg {
			if c.Event == "crash" && c.Seq > imageSeq {
				image, imageSeq = c.Image, c.Seq
			}
		}
	}
	x["fleet.ledger_entries"] = float64(ledger)
	x["fleet.history_epochs"] = float64(epochs)
	if image != nil {
		rep, err := journal.DecodeAll(image)
		if err != nil {
			return fmt.Errorf("%s: newest crash image does not decode: %w", p.name, err)
		}
		x["journal.records"] = float64(len(rep.Records))
		x["journal.bytes_per_op"] = float64(len(image)) / float64(len(rep.Records))
		probe.journalDecode(image) // stamped with the last op, so it counts as measured
	}

	if vs := verify.CheckFleet(a); len(vs) > 0 {
		return fmt.Errorf("%s: fleet oracle: %d violations, first: %s", p.name, len(vs), vs[0].Detail)
	}
	if len(a.PlacedNames()) != len(live) {
		return fmt.Errorf("%s: registry holds %d VMs, the client believes %d", p.name, len(a.PlacedNames()), len(live))
	}
	return nil
}

// cacheExact records the shared planner cache's counters over the
// measured phase.
func cacheExact(x map[string]float64, c0, c planner.CacheStats) {
	hits, misses := float64(c.Hits-c0.Hits), float64(c.Misses-c0.Misses)
	if hits+misses > 0 {
		x["planner.cache_hit_pct"] = 100 * hits / (hits + misses)
	}
	sh, sm := float64(c.Slice.Hits-c0.Slice.Hits), float64(c.Slice.Misses-c0.Slice.Misses)
	if sh+sm > 0 {
		x["planner.slice_hit_pct"] = 100 * sh / (sh + sm)
	}
	x["planner.cache_entries"] = float64(c.Entries)
	x["planner.cache_bytes_mb"] = float64(c.Bytes) / (1 << 20)
	x["planner.cache_evictions"] = float64(c.Evictions - c0.Evictions)
}
