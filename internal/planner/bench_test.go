package planner

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchSpecs(n int) []VCPUSpec {
	specs := make([]VCPUSpec, n)
	for i := range specs {
		specs[i] = VCPUSpec{
			Name:        fmt.Sprintf("vm%d", i),
			Util:        Util{Num: 1, Den: 4},
			LatencyGoal: 20_000_000,
			Capped:      true,
		}
	}
	return specs
}

func BenchmarkPlan(b *testing.B) {
	for _, vms := range []int{16, 48, 176} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			specs := benchSpecs(vms)
			opts := Options{Cores: (vms + 3) / 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(specs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(8)
	specs := benchSpecs(48)
	opts := Options{Cores: 12}
	if _, _, err := c.Plan(specs, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Plan(specs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallHostPlan is one scratch plan of a fleet host: 256 seeded
// 8-core populations of 4-11 VMs from the fleet mix, planned in turn
// with a warm slice memo — what a mixed-shape placement pays on every
// whole-plan cache miss.
func BenchmarkSmallHostPlan(b *testing.B) {
	pops := make([][]VCPUSpec, 256)
	opts := Options{Cores: 8, Slices: NewSliceCache(0)}
	for i := range pops {
		pops[i] = fleetHostSpecs(rand.New(rand.NewSource(int64(i))), 4+i%8)
		if _, err := Plan(pops[i], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(pops[i%len(pops)], opts); err != nil {
			b.Fatal(err)
		}
	}
}
