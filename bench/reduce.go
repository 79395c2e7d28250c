package main

import (
	"fmt"
	"math"
	"reflect"
)

// workloadDef binds a workload to the call sites its primary and
// auxiliary ops are timed under and to its latency limit. Why each one
// exists is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	run  func(cfg runConfig, rec *recorder) error
	op   string // call site of the primary op
	aux  string // call site of the auxiliary op
	// sloNs is the host-time limit a primary op must meet; 0 means the
	// workload's SLO is counted in simulated time by the guests.
	sloNs int64
}

var workloads = []workloadDef{
	{name: fleetPlace1k.name, run: fleetPlace1k.run, op: "fleet.Place", aux: "fleet.Depart", sloNs: 200_000},
	{name: fleetDurable256.name, run: fleetDurable256.run, op: "fleet.Place", aux: "fleet.Failover", sloNs: 150_000},
	{name: hostReplan192.name, run: hostReplan192.run, op: replanOp, aux: "core.Recover", sloNs: 2_000_000},
	{name: guestServe48.name, run: guestServe48.run, op: "vmm.Run", aux: guestChurn},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// checkDeterminism demands that everything that is a function of the
// seed — counters, simulated-time results, which calls failed, how many
// calls each site saw — is identical in every pass. The traced pass may
// know more (its probes add keys) but may not disagree.
func checkDeterminism(w workloadDef, passes []*recorder, traced *recorder) error {
	ref := passes[0]
	all := passes[1:]
	if traced != nil {
		all = append(append([]*recorder(nil), all...), traced)
	}
	for i, p := range all {
		for k, v := range ref.exact {
			if got, ok := p.exact[k]; !ok || got != v {
				return fmt.Errorf("%s: %s is %v in pass 0 and %v in pass %d: the passes are not replicates", w.name, k, v, got, i+1)
			}
		}
		if !reflect.DeepEqual(ref.failed, p.failed) {
			return fmt.Errorf("%s: pass 0 and pass %d disagree on which calls failed", w.name, i+1)
		}
		for site, s := range ref.meas {
			if len(p.meas[site]) != len(s) || len(p.setup[site]) != len(ref.setup[site]) {
				return fmt.Errorf("%s: call site %s saw a different number of calls in pass %d", w.name, site, i+1)
			}
		}
	}
	// The memory figures come from the runtime, which allocates a little
	// on its own account, so they repeat to a few parts in 100000 rather
	// than to the byte.
	for i, p := range passes[1:] {
		for _, m := range []struct {
			name     string
			ref, got uint64
		}{
			{"bytes allocated", ref.allocBytes, p.allocBytes},
			{"allocation count", ref.mallocs, p.mallocs},
			{"live heap", ref.liveHeap, p.liveHeap},
		} {
			if d := math.Abs(float64(m.got) - float64(m.ref)); d > memTolerance*float64(m.ref) {
				return fmt.Errorf("%s: %s is %d in pass 0 and %d in pass %d: the passes are not replicates", w.name, m.name, m.ref, m.got, i+1)
			}
		}
	}
	return nil
}

// memTolerance is how far a pass's allocation and live-heap figures may
// sit from pass 0's and still count as the same.
const memTolerance = 0.002

// minsOf folds one call site's measured series across the passes.
func minsOf(passes []*recorder, site string, setup bool) []int64 {
	series := make([][]int64, len(passes))
	for i, p := range passes {
		if setup {
			series[i] = p.setup[site]
		} else {
			series[i] = p.meas[site]
		}
	}
	mins, _ := replicateMin(series) // lengths were checked by checkDeterminism
	return mins
}

// reduce turns R replicate passes (and the optional traced pass) of one
// workload into its metrics.
func reduce(w workloadDef, cfg runConfig, passes []*recorder, traced *recorder) (*result, error) {
	if err := checkDeterminism(w, passes, traced); err != nil {
		return nil, err
	}
	ref := passes[0]
	r := &result{
		workload: w.name, seed: cfg.seed, passes: len(passes), correct: true, traced: traced != nil,
		values: make(map[string]float64), samples: make(map[string]int),
	}
	v := r.values

	var setupNs int64
	for _, site := range sortedKeys(ref.setup) {
		setupNs += sum(minsOf(passes, site, true))
	}
	v["setup_s"] = float64(setupNs) / 1e9

	opMins := minsOf(passes, w.op, false)
	auxMins := minsOf(passes, w.aux, false)
	if len(opMins) == 0 || len(auxMins) == 0 {
		return nil, fmt.Errorf("%s: no measured %s or %s calls", w.name, w.op, w.aux)
	}
	// Primary work done — the op calls themselves, or the guest requests
	// those calls served — per second of everything the measured loop
	// asked of the product, auxiliary calls included: a slower Depart,
	// Failover or Recover lowers it by that call's share of the loop.
	ops := float64(len(opMins))
	if served, ok := ref.exact["requests_served"]; ok {
		ops = served
	}
	var loopNs int64
	for _, site := range sortedKeys(ref.meas) {
		loopNs += sum(minsOf(passes, site, false))
	}
	v["ops_per_s"] = ops / (float64(loopNs) / 1e9)
	for _, q := range []struct {
		name string
		q    float64
		xs   []int64
	}{
		{"op_p50_us", 0.50, opMins}, {"proc.aux_p50_us", 0.50, auxMins}, {"proc.op_p90_us", 0.90, opMins},
		{"proc.op_p99_us", 0.99, opMins}, {"proc.op_p999_us", 0.999, opMins},
	} {
		qu := quantileOf(q.xs, q.q)
		v[q.name] = qu.value / 1e3
		r.samples[q.name] = qu.n
	}

	opFailed := make(map[int]bool, len(ref.failed[w.op]))
	for _, i := range ref.failed[w.op] {
		opFailed[i] = true
	}
	r.failed = len(ref.failed[w.op]) + len(ref.failed[w.aux])
	if w.sloNs > 0 {
		r.attempted = len(opMins) + len(auxMins)
		within := 0
		for i, d := range opMins {
			if d <= w.sloNs && !opFailed[i] {
				within++
			}
		}
		v["slo_pct"] = 100 * float64(within) / float64(len(opMins))
	} else {
		// Guests count their own limit, in simulated time, from each
		// request's intended arrival.
		r.attempted = int(ref.exact["guest_scheduled"]) + len(auxMins)
		v["slo_pct"] = 100 * ref.exact["guest_slo_met"] / ref.exact["guest_scheduled"]
	}
	v["ok_pct"] = 100 * float64(r.attempted-r.failed) / float64(r.attempted)

	// Memory. The collector's own work is mostly filtered out of the
	// time metrics by the minimum, so what it is given to do is gated
	// here instead. checkDeterminism has shown the passes agree.
	var allocKB, allocs, heapMB []float64
	for _, p := range passes {
		allocKB = append(allocKB, float64(p.allocBytes)/1024/ops)
		allocs = append(allocs, float64(p.mallocs)/ops)
		heapMB = append(heapMB, float64(p.liveHeap)/(1<<20))
	}
	v["alloc_kb_per_op"] = medianF(allocKB)
	v["allocs_per_op"] = medianF(allocs)
	v["live_heap_mb"] = medianF(heapMB)

	if traced == nil {
		return r, nil
	}

	var wallSec, opSum, gcCycles, gcCPU, rawP99 []float64
	var meanSum float64
	for _, p := range passes {
		wallSec = append(wallSec, p.wall.Seconds())
		opSum = append(opSum, float64(sum(p.meas[w.op])))
		meanSum += float64(sum(p.meas[w.op])) / float64(len(passes))
		gcCycles = append(gcCycles, float64(p.gcCycles))
		gcCPU = append(gcCPU, 100*p.gcCPUSec/p.wall.Seconds())
		rawP99 = append(rawP99, quantileOf(p.meas[w.op], 0.99).value/1e3)
	}

	// Per-layer: counters first (exact, from any pass), then spans.
	for _, d := range perLayer {
		if x, ok := traced.exact[d.name]; ok {
			v[d.name] = x
		}
	}
	v["proc.peak_rss_mb"] = peakRSSMB()
	v["proc.gc_cycles"] = medianF(gcCycles)
	v["proc.gc_cpu_pct"] = medianF(gcCPU)
	v["proc.raw_ops_per_s"] = ops / medianF(wallSec)
	v["proc.raw_op_p99_us"] = medianF(rawP99)
	v["proc.pass_spread_pct"] = spreadPct(opSum)
	v["proc.trace_overhead_pct"] = 100 * (float64(sum(traced.meas[w.op])) - meanSum) / meanSum
	if simNs, ok := ref.exact["sim_ns"]; ok {
		v["sim.speed_x"] = simNs / float64(sum(opMins))
	}
	spans := traced.tr.spans
	for _, sm := range spanMetrics {
		ds := spanDurations(spans, sm.span, sm.self)
		if len(ds) == 0 {
			continue
		}
		qu := quantileOf(ds, 0.50)
		v[sm.name] = qu.value / 1e3 / sm.per
		r.samples[sm.name] = qu.n
	}
	if place := spanDurations(spans, "fleet.Place", false); len(place) > 0 {
		// What of a placement the probes do not account for — pick,
		// registry, ledger, locking: the median Place less the sweep, a
		// cache-hit flush, and a scratch plan for the share of placements
		// that miss the cache.
		miss := 1 - v["planner.cache_hit_pct"]/100
		v["fleet.place_unattributed_us"] = quantileOf(place, 0.50).value/1e3 -
			v["fleet.snapshot_sweep_us"] - v["core.flush_hit_us"] - miss*v["planner.scratch_us"]
	}
	if n, ok := ref.exact["guest_samples"]; ok {
		for _, name := range []string{"workload.guest_mean_us", "workload.guest_p50_us", "workload.guest_p99_us"} {
			r.samples[name] = int(n)
		}
	}
	return r, nil
}
