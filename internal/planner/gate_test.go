package planner

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"

	"tableau/internal/table"
)

// gateVerdicts records, for every delta-form gate the planner runs while
// it is installed, that the delta verdict equals the full one: Validate
// then Check, over every core and every guarantee.
type gateVerdicts struct {
	t                *testing.T
	gates, narrowed  int
	skipped, checked int // guarantees the delta forms left out, and kept
}

func (g *gateVerdicts) install() func() {
	onFinalGate = func(tbl *table.Table, gs []table.Guarantee, known []bool, gated []table.Guarantee) {
		g.t.Helper()
		g.gates++
		if len(gated) < len(gs) {
			g.narrowed++
		}
		g.skipped += len(gs) - len(gated)
		g.checked += len(gated)
		var c table.Checker
		delta := cmp.Or(c.ValidateDelta(tbl, known), c.Check(tbl, gated))
		full := cmp.Or(tbl.Validate(), tbl.Check(gs))
		if (delta == nil) != (full == nil) {
			g.t.Errorf("delta gate says %v, the full gate %v", delta, full)
		}
	}
	return func() { onFinalGate = nil }
}

// denseWalk drives one Arena through a seeded walk of the 192-VM,
// 16-core host: three slots change state per step inside the 168-192
// band, every seventh step also reconfigures a resident VM, and step 25
// fails a core — one fewer core for the planner, so nothing is pinned or
// adopted there, and adoption resumes on the survivors after it. each,
// when set, sees every plan the walk makes.
func denseWalk(t *testing.T, seed int64, steps int, each func(*Result)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	on := make([]bool, 192)
	for _, slot := range rng.Perm(192)[:180] {
		on[slot] = true
	}
	reconf := map[int]VCPUSpec{}
	specsOf := func() []VCPUSpec {
		var specs []VCPUSpec
		for slot, resident := range on {
			if !resident {
				continue
			}
			sp := denseSpec(slot)
			if r, ok := reconf[slot]; ok {
				sp = r
			}
			specs = append(specs, sp)
		}
		return specs
	}
	a := new(Arena)
	opts := Options{Cores: 16, Slices: NewSliceCache(0)}
	var prev *PrevPlan
	adopted := 0
	for i := 0; i <= steps; i++ {
		resident := 0
		for _, r := range on {
			if r {
				resident++
			}
		}
		for k := 0; i > 0 && k < 3; k++ {
			slot := rng.Intn(192)
			switch {
			case on[slot] && resident > 168:
				on[slot] = false
				resident--
			case !on[slot]:
				on[slot] = true
				resident++
			}
		}
		if i%7 == 6 {
			slot := rng.Intn(192)
			sp := denseSpec(slot)
			sp.Util = []Util{{1, 32}, {1, 16}, {3, 64}}[rng.Intn(3)]
			sp.LatencyGoal = fleetMixGoals[rng.Intn(len(fleetMixGoals))]
			reconf[slot] = sp
		}
		if i == 25 {
			opts.Cores = 15
		}
		specs := specsOf()
		res, err := a.PlanIncremental(specs, opts, prev)
		if err != nil {
			continue // the previous plan stands, as on a host
		}
		if each != nil {
			each(res)
		}
		shared := 0
		if prev != nil {
			shared = sharedCores(prev.Res, res)
		}
		if i == 25 && shared > 0 {
			t.Errorf("step %d: the plan adopted cores across a core failure", i)
		}
		if shared > 0 {
			adopted++
		}
		prev = &PrevPlan{Specs: specs, Opts: opts, Res: res}
	}
	if adopted < steps/2 {
		t.Errorf("only %d of %d steps adopted a core", adopted, steps)
	}
}

// sharedCores counts the cores res adopted from prev: those whose
// allocation list is prev's own.
func sharedCores(prev, res *Result) int {
	n := 0
	for c := range res.Table.Cores {
		if c < len(prev.Table.Cores) {
			if as, pa := res.Table.Cores[c].Allocs, prev.Table.Cores[c].Allocs; len(as) > 0 && len(as) == len(pa) && &as[0] == &pa[0] {
				n++
			}
		}
	}
	return n
}

// TestDeltaGateMatchesFullCheck: the delta form of the final gate gives
// the full gate's verdict on every plan that takes it — the incremental
// chains of the digest wall planned in arenas (whose digests must also
// stay the pinned ones: the arena moves no decision) and the dense host's
// churn walk with reconfigurations and a core failure.
func TestDeltaGateMatchesFullCheck(t *testing.T) {
	g := &gateVerdicts{t: t}
	defer g.install()()
	checkDigests(t, digestCases(true, false))
	for seed := int64(1); seed <= 2; seed++ {
		denseWalk(t, seed, 40, nil)
	}
	t.Logf("%d delta gates, %d narrowed: %d guarantees skipped, %d re-checked", g.gates, g.narrowed, g.skipped, g.checked)
	if g.narrowed < 100 || g.skipped < 4*g.checked {
		t.Errorf("the delta form barely engaged: %d gates, %d narrowed, %d guarantees skipped against %d re-checked",
			g.gates, g.narrowed, g.skipped, g.checked)
	}
}

// TestDeltaGateConvictsMutants: the two ways an adopted core could go
// stale behind the gate's back are caught. The previous table is a
// verified two-core plan; each mutant adopts both of its cores.
func TestDeltaGateConvictsMutants(t *testing.T) {
	g := func(v int, service int64) table.Guarantee {
		return table.Guarantee{VCPU: v, Service: service, WindowLen: 100, MaxBlackout: 60}
	}
	cores := func() []table.CoreTable {
		return []table.CoreTable{
			{Core: 0, Allocs: []table.Alloc{{Start: 0, End: 40, VCPU: 0}, {Start: 50, End: 90, VCPU: 1}}},
			{Core: 1, Allocs: []table.Alloc{{Start: 0, End: 40, VCPU: 2}}},
		}
	}
	vcpus := func(n int) []table.VCPUInfo {
		vs := make([]table.VCPUInfo, n)
		for i := range vs {
			vs[i] = table.VCPUInfo{Name: fmt.Sprintf("v%d", i), HomeCore: -1}
		}
		return vs
	}
	prev := &table.Table{Len: 100, Cores: cores(), VCPUs: vcpus(3)}
	prevGs := []table.Guarantee{g(0, 40), g(1, 40), g(2, 40)}
	if err := cmp.Or(prev.Validate(), prev.Check(prevGs)); err != nil {
		t.Fatal(err)
	}
	gate := func(vms int, gs []table.Guarantee, trusted bool) ([]table.Guarantee, error) {
		ws := &workspace{check: new(table.Checker), adopted: []bool{true, true}}
		tbl := &table.Table{Len: 100, Cores: cores(), VCPUs: vcpus(vms)}
		pin := &pinning{prevTable: prev, prevGs: prevGs, trusted: trusted}
		known, gated := finalGate(ws, tbl, gs, pin)
		return gated, cmp.Or(ws.validate(tbl, known), ws.checkGuarantees(tbl, gated))
	}

	if gated, err := gate(3, prevGs, true); err != nil || len(gated) != 0 {
		t.Errorf("an unchanged plan re-checked %v and failed with %v", gated, err)
	}
	// A new VM packed onto core 0 after it was marked adopted: the table
	// has no allocation for vCPU 3.
	packed := append(append([]table.Guarantee(nil), prevGs...), g(3, 10))
	if _, err := gate(4, packed, true); err == nil {
		t.Error("a new vCPU with no allocation passed the delta gate")
	}
	// vCPU 1, on adopted core 0 alone, now holds a bigger guarantee.
	grown := []table.Guarantee{g(0, 40), g(1, 50), g(2, 40)}
	if _, err := gate(3, grown, true); err == nil {
		t.Error("an adopted core whose guarantee grew passed the delta gate")
	}
	// A previous plan the workspace did not verify gets the full gate.
	if gated, _ := gate(3, prevGs, false); len(gated) != len(prevGs) {
		t.Errorf("an untrusted previous plan narrowed the gate to %v", gated)
	}
}
