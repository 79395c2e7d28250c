package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// benchSink swallows staged tables: the replan-storm benchmark measures
// the control plane (planning + epoch install), not table adoption.
type benchSink struct{}

func (benchSink) PushTable(*table.Table) error { return nil }

// stormRig is a dense 16-core host: twelve VMs per core at 1/16
// utilization with heterogeneous latency goals (5/10/20 ms, the
// paper's tiered-SLA shape), with every slot resident so churn batches
// can toggle the tail of the population.
func stormRig(b testing.TB, fast bool) (*System, *Controller) {
	b.Helper()
	s := NewSystem(16, planner.Options{}, dispatch.Options{})
	if fast {
		s.Cache = planner.NewCache(0)
		s.Incremental = true
	}
	goals := []int64{5_000_000, 10_000_000, 20_000_000}
	for i := 0; i < 192; i++ {
		cfg := VMConfig{Name: fmt.Sprintf("vm%d", i), Util: Util{Num: 1, Den: 16}, Capped: true}
		cfg.LatencyGoal = goals[i%len(goals)]
		if _, err := s.AddVM(cfg); err != nil {
			b.Fatal(err)
		}
	}
	_, res, err := s.Plan()
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := NewController(s, benchSink{}, res)
	if err != nil {
		b.Fatal(err)
	}
	// Epochs retain a full table plus its wire encoding; unbounded
	// history would grow the live heap (and the GC tail) with b.N,
	// making measured latency depend on iteration count. Bound it the
	// way a long-lived host would.
	ctrl.MaxHistory = 64
	return s, ctrl
}

func reportPercentiles(b *testing.B, lats []time.Duration) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[min(len(lats)-1, len(lats)*99/100)]
	b.ReportMetric(float64(p50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
}

// BenchmarkReplanStorm measures coalesced churn-batch replan latency on
// a dense 16-core host, the ROADMAP's replan-latency bottleneck. Each
// iteration is one flushed batch changing the state of three VMs — the
// paper's "tables are regenerated on demand" path under a 3-of-16-core
// perturbation:
//
//   - scratch: the full planner runs for every batch (the baseline the
//     acceptance criterion compares against), toggling the last three
//     slots;
//   - incremental: the same toggles; the 13 untouched cores are pinned
//     and their schedules adopted, only the dirty remainder is
//     re-synthesized;
//   - walk: incremental, on the benchmark's random walk (denseOps): any
//     three slots, so departures land anywhere in the slot order and the
//     slice memo misses on the task sets the walk keeps minting.
func BenchmarkReplanStorm(b *testing.B) {
	toggles := [][]Op{
		{{Kind: OpDeactivate, Slot: 189}, {Kind: OpDeactivate, Slot: 190}, {Kind: OpDeactivate, Slot: 191}},
		{{Kind: OpActivate, Slot: 189}, {Kind: OpActivate, Slot: 190}, {Kind: OpActivate, Slot: 191}},
	}
	for _, tc := range []struct {
		name       string
		fast, walk bool
	}{
		{"mode=scratch", false, false},
		{"mode=incremental", true, false},
		{"mode=walk", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			_, ctrl := stormRig(b, tc.fast)
			rng := rand.New(rand.NewSource(1))
			on, off := make([]int, 192), []int(nil)
			for i := range on {
				on[i] = i
			}
			batch := func(i int) []Op {
				if tc.walk {
					return denseOps(rng, &on, &off)
				}
				return toggles[i%len(toggles)]
			}
			lats := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl.SubmitBatch(batch(i))
				start := time.Now()
				tr, err := ctrl.Flush()
				lat := time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if tr == nil || tr.Version == 0 {
					b.Fatalf("batch %d did not commit: %+v", i, tr)
				}
				lats = append(lats, lat)
			}
			b.StopTimer()
			reportPercentiles(b, lats)
		})
	}
}

// BenchmarkRecoverDense is one Recover of the benchmark's dense journal:
// 101 records of the 192-VM host (the baseline plus 100 churn flushes,
// the journal length between rotations), MaxHistory 64, from a
// MemStore. A clean journal is not written to by Recover, so every
// iteration replays the same store.
func BenchmarkRecoverDense(b *testing.B) {
	ctrl, store := denseJournaledHost(b, 1, 100)
	live := ctrl.Epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _, rep, err := Recover(store, RecoverOptions{MaxHistory: 64, Incremental: true, Sink: benchSink{}})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Replayed != 101 || rep.RecoveredVersion != live.Version || len(rc.History()) != 64 {
			b.Fatalf("recovered %d records to v%d with %d epochs, want 101 to v%d with 64",
				rep.Replayed, rep.RecoveredVersion, len(rc.History()), live.Version)
		}
	}
}
