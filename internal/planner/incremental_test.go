package planner

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"tableau/internal/table"
)

// mixedSpecs builds a heterogeneous population: utilizations and latency
// goals vary per VM so cores end up with distinct task multisets.
func mixedSpecs(n int) []VCPUSpec {
	goals := []int64{10_000_000, 20_000_000, 30_000_000}
	utils := []Util{{1, 4}, {1, 8}, {3, 16}}
	var specs []VCPUSpec
	for i := 0; i < n; i++ {
		specs = append(specs, VCPUSpec{
			Name:        fmt.Sprintf("vm%d.0", i),
			Util:        utils[i%len(utils)],
			LatencyGoal: goals[i%len(goals)],
			Capped:      i%2 == 0,
		})
	}
	return specs
}

func encodeTable(t *testing.T, tbl *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSliceCacheReuse pins the slice memo's correctness and accounting:
// replanning the same population through a shared SliceCache serves
// every synthesized core from the memo and still produces the
// byte-identical table (the simulation result is placement-independent;
// vCPU renumbering happens in tileSlots, after the cache).
func TestSliceCacheReuse(t *testing.T) {
	specs := mixedSpecs(16)
	sc := NewSliceCache(0)
	opts := Options{Cores: 6, Slices: sc}

	first, err := Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("first plan did not populate the slice cache: %+v", st)
	}
	// Cores sharing a task multiset hit the memo within one plan, so the
	// synthesized-core count is the first plan's misses plus its hits.
	synthesized := int(st.Misses) + first.SliceHits

	second, err := Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.SliceHits != synthesized {
		t.Errorf("second plan hit %d slices, want every synthesized core (%d)", second.SliceHits, synthesized)
	}
	if !bytes.Equal(encodeTable(t, first.Table), encodeTable(t, second.Table)) {
		t.Error("slice-cache hit changed the produced table")
	}
}

// TestCacheByteBudget pins the whole-problem cache's size bound: a byte
// budget far below the working set must trigger evictions and keep the
// reported footprint under the budget, while the cache stays usable.
func TestCacheByteBudget(t *testing.T) {
	c := NewCache(128)
	c.SetMaxBytes(4 << 10)
	for i := 0; i < 12; i++ {
		goal := int64(10+i) * 1_000_000
		if _, _, err := c.Plan(cacheSpecs(8, goal), Options{Cores: 2}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.FullStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 4 KiB budget: %+v", st)
	}
	if st.Bytes > 4<<10 && st.Entries > 1 {
		t.Errorf("footprint %d bytes exceeds the 4 KiB budget with %d entries", st.Bytes, st.Entries)
	}
	if st.Entries == 0 {
		t.Error("budget evicted every entry; at least the newest must stay")
	}
}

// sortedByVCPU returns guarantees ordered by vCPU id.
func sortedByVCPU(gs []table.Guarantee) []table.Guarantee {
	out := append([]table.Guarantee(nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i].VCPU < out[j].VCPU })
	return out
}

// TestIncrementalEquivalence exercises PlanIncremental across the three
// churn shapes — arrival, departure, reconfiguration — and demands (a)
// the diff actually pins cores, and (b) the incremental table passes
// table.Check against the guarantees of a scratch plan of the same
// population: identical promises, independently verified delivery.
func TestIncrementalEquivalence(t *testing.T) {
	base := mixedSpecs(16)
	opts := Options{Cores: 8}
	prevRes, err := Plan(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := &PrevPlan{Specs: base, Opts: opts, Res: prevRes}

	arrival := append(append([]VCPUSpec(nil), base...), VCPUSpec{
		Name: "vm99.0", Util: Util{1, 8}, LatencyGoal: 20_000_000, Capped: true,
	})
	departure := append([]VCPUSpec(nil), base[:15]...)
	reconf := append([]VCPUSpec(nil), base...)
	reconf[3].LatencyGoal = 5_000_000

	for _, tc := range []struct {
		name  string
		specs []VCPUSpec
	}{
		{"arrival", arrival},
		{"departure", departure},
		{"reconfigure", reconf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, err := PlanIncremental(tc.specs, opts, prev)
			if err != nil {
				t.Fatal(err)
			}
			if !inc.Incremental || inc.PinnedCores == 0 {
				t.Fatalf("diff did not pin any core: incremental=%v pinned=%d", inc.Incremental, inc.PinnedCores)
			}
			scratch, err := Plan(tc.specs, opts)
			if err != nil {
				t.Fatal(err)
			}
			ig, sg := sortedByVCPU(inc.Guarantees), sortedByVCPU(scratch.Guarantees)
			if len(ig) != len(sg) {
				t.Fatalf("%d guarantees (incremental) vs %d (scratch)", len(ig), len(sg))
			}
			for i := range ig {
				if ig[i] != sg[i] {
					t.Errorf("guarantee mismatch: %+v (incremental) vs %+v (scratch)", ig[i], sg[i])
				}
			}
			if err := inc.Table.Check(sg); err != nil {
				t.Errorf("incremental table fails scratch guarantees: %v", err)
			}
		})
	}
}

// TestIncrementalFallsBackToScratch pins the safety valve: an
// incompatible topology (different core count) or an absent previous
// plan must yield a plain scratch plan, never an error or a stale pin.
func TestIncrementalFallsBackToScratch(t *testing.T) {
	base := mixedSpecs(8)
	opts := Options{Cores: 4}
	prevRes, err := Plan(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := &PrevPlan{Specs: base, Opts: opts, Res: prevRes}

	res, err := PlanIncremental(base, Options{Cores: 5}, prev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental || res.PinnedCores != 0 {
		t.Errorf("topology change must disable pinning: incremental=%v pinned=%d", res.Incremental, res.PinnedCores)
	}
	res, err = PlanIncremental(base, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Error("nil prev must plan from scratch")
	}
}

// TestConcurrentPlanStress is the race-target stress test: 8 goroutines
// plan overlapping populations through one shared Cache (and its
// SliceCache), mixing cached, scratch, and incremental paths. Run under
// -race this exercises the cache and slice-memo locking and the
// read-only sharing of cached results.
func TestConcurrentPlanStress(t *testing.T) {
	c := NewCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := mixedSpecs(12)
			opts := Options{Cores: 4, Slices: c.SliceCache()}
			prevRes, err := Plan(base, opts)
			if err != nil {
				t.Error(err)
				return
			}
			prev := &PrevPlan{Specs: base, Opts: opts, Res: prevRes}
			for i := 0; i < 10; i++ {
				goal := int64(10+(g+i)%4*5) * 1_000_000
				if _, _, err := c.Plan(cacheSpecs(8, goal), Options{Cores: 2}); err != nil {
					t.Error(err)
					return
				}
				perturbed := append([]VCPUSpec(nil), base...)
				perturbed[i%len(base)].LatencyGoal = goal
				res, err := PlanIncremental(perturbed, opts, prev)
				if err != nil {
					t.Error(err)
					return
				}
				if err := res.Table.Check(res.Guarantees); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
