package planner

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tableau/internal/israce"
	"tableau/internal/periodic"
	"tableau/internal/table"
)

// scribble overwrites every buffer of a workspace, to its full capacity,
// with values no plan produces: whatever still points into the
// workspace after the plan that used it returned reads garbage.
func scribble(ws *workspace) {
	junkTask := periodic.Task{Name: "scribbled", Group: -7, Offset: -7, WCET: -7, Deadline: -7, Period: -7}
	junkTasks := func(ts periodic.TaskSet) {
		ts = ts[:cap(ts)]
		for i := range ts {
			ts[i] = junkTask
		}
	}
	junkAllocs := func(as []table.Alloc) {
		as = as[:cap(as)]
		for i := range as {
			as[i] = table.Alloc{Start: -7, End: -7, VCPU: -7}
		}
	}
	for i := range ws.coreSlab {
		junkTasks(ws.coreSlab[i].tasks)
		ws.coreSlab[i].util = frac{num: -7, den: 1}
	}
	junkTasks(ws.tasks)
	junkTasks(ws.order)
	junkTasks(ws.pinned)
	junkAllocs(ws.tiled)
	junkAllocs(ws.final)
	ids := ws.ids[:cap(ws.ids)]
	for i := range ids {
		ids[i] = -7
	}
	for _, buf := range [][]int64{ws.svc, ws.period, ws.onCore, ws.best} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = -7
		}
	}
	for _, buf := range [][]int32{ws.dedicatedOf, ws.coreOf, ws.renumber, ws.pieces, ws.splitAt, ws.gAt} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = -7
		}
	}
	for _, buf := range [][]bool{ws.adopted, ws.split, ws.pinnedSpec, ws.coreClean, ws.groupDirty, ws.dirty} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = true
		}
	}
	gated := ws.gated[:cap(ws.gated)]
	for i := range gated {
		gated[i] = table.Guarantee{VCPU: -7, Service: -7, WindowLen: -7, MaxBlackout: -7}
	}
	key := ws.key[:cap(ws.key)]
	for i := range key {
		key[i] = 0xff
	}
	clear(ws.jobs[:cap(ws.jobs)])
	clear(ws.coreTasks[:cap(ws.coreTasks)])
	ws.pin = pinning{}
}

// churnThePool pushes about 200 plans of every kind through the
// workspace pool: small and dense hosts, splits and clusters, refused
// populations, and an incremental chain that keeps falling back.
func churnThePool(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	memo := NewSliceCache(0)
	for i := 0; i < 120; i++ {
		_, _ = Plan(fleetHostSpecs(rng, 2+rng.Intn(14)), Options{Cores: 8, Slices: memo})
	}
	for i := 0; i < 30; i++ {
		cores := 2 + rng.Intn(3)
		specs := tightSpecs(rng, cores)
		_, _ = Plan(specs, Options{Cores: cores, DisableSplitting: i%3 == 0})
		// Refused: one core too few for the reservations, and a duplicate name.
		_, _ = Plan(specs, Options{Cores: 1})
		_, _ = Plan(append(specs, specs[0]), Options{Cores: cores + 1})
	}
	on := make([]bool, 192)
	for slot := range on {
		on[slot] = rng.Intn(8) != 0
	}
	_, _ = Plan(denseSpecs(on), Options{Cores: 16, Slices: memo})
	// An incremental chain on a nearly full host: reconfigurations keep
	// invalidating pins, and some steps fall back to a scratch plan.
	var specs []VCPUSpec
	for i := 0; i < 5; i++ {
		specs = append(specs, VCPUSpec{Name: fmt.Sprintf("t%d", i), Util: Util{4, 5}, LatencyGoal: 20_000_000})
	}
	opts := Options{Cores: 4, Slices: memo}
	var prev *PrevPlan
	for i := 0; i < 40; i++ {
		specs = append([]VCPUSpec(nil), specs...)
		specs[rng.Intn(len(specs))].Util = []Util{{3, 4}, {4, 5}, {7, 10}, {3, 5}}[rng.Intn(4)]
		if res, err := PlanIncremental(specs, opts, prev); err == nil {
			prev = &PrevPlan{Specs: specs, Opts: opts, Res: res}
		}
	}
}

// TestPlanResultOwnsItsMemory: a Result must share nothing with the
// workspace it was planned in. Plans are kept while hundreds of other
// plans reuse — and a hook scribbles over — every workspace; the kept
// plans must still equal fresh plans of the same inputs, field for field
// and byte for byte. An Arena, which a dense host keeps for its whole
// life, is scribbled after each of its plans too, and its chain of plans
// (the later ones gated in the delta form) must come out the same. The
// same again from eight goroutines, as the fleet's placers, plannersvc's
// handlers and Cache.Plan all plan concurrently (run it under -race).
func TestPlanResultOwnsItsMemory(t *testing.T) {
	onPutWorkspace = scribble
	defer func() { onPutWorkspace = nil }()

	type kept struct {
		name string
		plan func() (*Result, error)
	}
	check := func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		small := fleetHostSpecs(rng, 7)
		tight := tightSpecs(rand.New(rand.NewSource(2003)), 2) // a split
		grown := append(append([]VCPUSpec(nil), small...), fleetGuest(rng, "s20"))
		dense := make([][]VCPUSpec, 4)
		on := make([]bool, 192)
		for slot := range on {
			on[slot] = rng.Intn(12) != 0
		}
		for i := range dense {
			dense[i] = denseSpecs(on)
			for k := 0; k < 3; k++ {
				slot := rng.Intn(192)
				on[slot] = !on[slot]
			}
		}
		cache := NewCache(8)
		keep := []kept{
			{"small host", func() (*Result, error) { return Plan(small, Options{Cores: 8}) }},
			{"split host", func() (*Result, error) { return Plan(tight, Options{Cores: 2}) }},
			{"cached", func() (*Result, error) {
				res, _, err := cache.Plan(small, Options{Cores: 8})
				return res, err
			}},
			{"incremental", func() (*Result, error) {
				base, err := Plan(small, Options{Cores: 8})
				if err != nil {
					return nil, err
				}
				return PlanIncremental(grown, Options{Cores: 8}, &PrevPlan{Specs: small, Opts: Options{Cores: 8}, Res: base})
			}},
			{"arena", func() (*Result, error) {
				a, opts := new(Arena), Options{Cores: 16}
				var prev *PrevPlan
				shared := 0
				for _, specs := range dense {
					res, err := a.PlanIncremental(specs, opts, prev)
					if err != nil {
						return nil, err
					}
					if prev != nil {
						shared = sharedCores(prev.Res, res)
					}
					prev = &PrevPlan{Specs: specs, Opts: opts, Res: res}
				}
				if shared == 0 {
					return nil, fmt.Errorf("the last plan adopted no core")
				}
				return prev.Res, nil
			}},
		}
		results := make([]*Result, len(keep))
		encoded := make([][]byte, len(keep))
		for i, k := range keep {
			res, err := k.plan()
			if err != nil {
				t.Errorf("%s: %v", k.name, err)
				return
			}
			results[i] = res
			if encoded[i], err = res.Table.AppendEncodedCompact(nil); err != nil {
				t.Errorf("%s: %v", k.name, err)
				return
			}
		}

		churnThePool(seed)

		cache = NewCache(8) // a fresh cache, so "cached" plans again
		for i, k := range keep {
			fresh, err := k.plan()
			if err != nil {
				t.Errorf("%s: replanning: %v", k.name, err)
				continue
			}
			if !reflect.DeepEqual(results[i], fresh) {
				t.Errorf("%s: the kept Result no longer equals a fresh plan of its input:\nkept  %+v\nfresh %+v", k.name, results[i], fresh)
			}
			if enc, err := results[i].Table.AppendEncodedCompact(nil); err != nil || !bytes.Equal(enc, encoded[i]) {
				t.Errorf("%s: the kept table re-encodes differently (err %v)", k.name, err)
			}
			if err := results[i].Table.Check(results[i].Guarantees); err != nil {
				t.Errorf("%s: the kept table no longer passes its guarantees: %v", k.name, err)
			}
		}
	}

	t.Run("sequential", func(t *testing.T) { check(t, 1) })
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				check(t, seed)
			}(int64(100 + g))
		}
		wg.Wait()
	})
}

// TestSmallHostPlanAllocationCeiling: with a warm slice memo, planning a
// 7-VM fleet host on 8 cores allocates its Result and nothing else —
// the Result and Table structs, the Cores, VCPUs, Guarantees and
// CoreTasks arrays, one allocation backing and one task backing: 8
// objects. (A slice index per occupied core made it 15 while the
// planner built one.)
func TestSmallHostPlanAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	specs := fleetHostSpecs(rand.New(rand.NewSource(7)), 7)
	opts := Options{Cores: 8, Slices: NewSliceCache(0)}
	if _, err := Plan(specs, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Plan(specs, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Errorf("a warm small-host plan allocates %.0f objects, ceiling 9", allocs)
	}
}
