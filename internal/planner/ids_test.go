package planner

import (
	"errors"
	"testing"

	"tableau/internal/table"
)

// TestSparseIDsPlanTheSameTables: every pinned digest input, planned
// with sparse ids (3k+1: a gap after every vCPU, none at 0) and renamed
// back, is the pinned plan. Ids name the table's vCPUs and decide
// nothing. The incremental chains run both as package-level plans and
// through arenas, so the delta gate sees the gaps too.
func TestSparseIDsPlanTheSameTables(t *testing.T) {
	checkDigests(t, digestCases(false, true))
	checkDigests(t, digestCases(true, true))
}

// TestSparseIDsNameTheTable: a plan's table, its VCPUs entries and its
// guarantees speak in the specs' ids; an id no spec holds is fenced.
func TestSparseIDsNameTheTable(t *testing.T) {
	specs := []VCPUSpec{
		{ID: 1, Name: "a", Util: Util{1, 4}, LatencyGoal: 10_000_000},
		{ID: 4, Name: "b", Util: Util{1, 4}, LatencyGoal: 10_000_000},
		{ID: 9, Name: "c", Util: Util{1, 1}, LatencyGoal: 10_000_000},
	}
	res, err := Plan(specs, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.VCPUs) != 10 {
		t.Fatalf("table holds %d vCPUs, want 10 (max id + 1)", len(res.Table.VCPUs))
	}
	for v, vi := range res.Table.VCPUs {
		switch v {
		case 1, 4, 9:
			if vi.Name != specs[map[int]int{1: 0, 4: 1, 9: 2}[v]].Name || vi.HomeCore < 0 {
				t.Errorf("vcpu %d = %+v", v, vi)
			}
		default:
			if vi != (table.VCPUInfo{Capped: true, HomeCore: -1}) {
				t.Errorf("absent id %d is not fenced: %+v", v, vi)
			}
		}
	}
	for i, g := range res.Guarantees {
		if g.VCPU != specs[i].ID {
			t.Errorf("guarantee %d names vcpu %d, want id %d", i, g.VCPU, specs[i].ID)
		}
	}
	for _, ct := range res.Table.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU != table.Idle && a.VCPU != 1 && a.VCPU != 4 && a.VCPU != 9 {
				t.Errorf("core %d allocates to vcpu %d, no spec's id", ct.Core, a.VCPU)
			}
		}
	}
}

// TestPlanRefusesUnorderedIDs: ids that are set must be strictly
// increasing in spec order and within [0, MaxVCPUID]; every entry point
// refuses anything else with an *IDOrderError naming the first offender.
func TestPlanRefusesUnorderedIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  [3]int
		at   int
	}{
		{"repeated", [3]int{1, 4, 4}, 2},
		{"decreasing", [3]int{1, 9, 4}, 2},
		{"negative", [3]int{-1, 4, 9}, 0},
		{"past the bound", [3]int{1, 4, MaxVCPUID + 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var specs []VCPUSpec
			for i, id := range tc.ids {
				specs = append(specs, VCPUSpec{ID: id, Name: string(rune('a' + i)), Util: Util{1, 4}, LatencyGoal: 10_000_000})
			}
			opts := Options{Cores: 2}
			_, cacheErr := func() (*Result, error) { res, _, err := NewCache(0).Plan(specs, opts); return res, err }()
			_, incErr := new(Arena).PlanIncremental(specs, opts, nil)
			for entry, err := range map[string]error{
				"Plan":                  func() error { _, err := Plan(specs, opts); return err }(),
				"Admit":                 Admit(specs, 2),
				"Cache.Plan":            cacheErr,
				"Arena.PlanIncremental": incErr,
			} {
				var idErr *IDOrderError
				if !errors.As(err, &idErr) || idErr.Index != tc.at || idErr.ID != tc.ids[tc.at] {
					t.Errorf("%s: %v, want an *IDOrderError at position %d", entry, err, tc.at)
				}
			}
		})
	}
}
