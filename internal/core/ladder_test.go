package core

import (
	"testing"

	"tableau/internal/planner"
	"tableau/internal/trace"
)

// TestIncrementalBypassesPlanCache: on an incremental system the cache
// is only a carrier for its slice memo. A churn run must end with the
// whole-plan cache never consulted and never fed, while the memo hits.
func TestIncrementalBypassesPlanCache(t *testing.T) {
	s, _, ctrl, ids, _ := churnRig(t, 2, 2, 4)
	cache := planner.NewCache(0)
	s.Cache = cache
	s.Incremental = true

	for i := 0; i < 12; i++ {
		kind := OpActivate
		if i%2 == 1 {
			kind = OpDeactivate
		}
		ctrl.Submit(Op{Kind: kind, Slot: ids[2+(i/2)%4]})
		tr, err := ctrl.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Version == 0 {
			t.Fatalf("flush %d did not commit: %+v", i, tr)
		}
	}
	st := cache.FullStats()
	if st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Errorf("incremental system touched the whole-plan cache: %+v", st)
	}
	if st.Slice.Hits == 0 {
		t.Errorf("slice memo never hit over a churn run that revisits populations: %+v", st.Slice)
	}
}

// TestPlanOriginTrace: every installed epoch emits one EvPlanOrigin
// record, and the origin is the rung of System.plan that produced it.
// The rigs arm their mode after the initial plan, so an incremental
// system's first flush has nothing to diff and a cached system's first
// two populations are misses.
func TestPlanOriginTrace(t *testing.T) {
	for _, tc := range []struct {
		name               string
		cache, incremental bool
		want               [3]int64 // scratch, cached, incremental
	}{
		{"scratch", false, false, [3]int64{3, 0, 0}},
		{"cached", true, false, [3]int64{2, 1, 0}},
		{"incremental", true, true, [3]int64{1, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, ctrl, ids, _ := churnRig(t, 2, 2, 3)
			if tc.cache {
				s.Cache = planner.NewCache(0)
			}
			s.Incremental = tc.incremental
			tr := trace.New(1 << 12)
			tr.Bind(s.Cores(), s.NumSlots())
			ctrl.Tracer = tr

			// The third flush returns to the first flush's population.
			for _, kind := range []OpKind{OpActivate, OpDeactivate, OpActivate} {
				ctrl.Submit(Op{Kind: kind, Slot: ids[2]})
				if _, err := ctrl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			m := tr.Metrics()
			if got := [3]int64{m.PlansScratch, m.PlansCached, m.PlansIncremental}; got != tc.want {
				t.Errorf("origins (scratch, cached, incremental) = %v, want %v", got, tc.want)
			}
		})
	}
}
