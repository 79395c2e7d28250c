package planner

import (
	"fmt"
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
