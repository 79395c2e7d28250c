package main

import (
	"math"
	"sort"
)

// The replicate-minimum estimator. Every workload runs as R identical
// passes from the same seed, so call i of pass 0 does exactly the work
// of call i of every other pass. Anything that makes one of those R
// timings longer than the others — a neighbour's time slice, a memory
// stall, a collector cycle that happened to land there — is not the
// code under test, and the minimum of the R timings discards it. All
// time metrics are sums or quantiles of those per-call minima.

// replicateMin folds R per-call timing series into the per-call
// minimum. Every series must have the same length: the passes are
// deterministic, so a length mismatch is a harness bug and reported as
// ok == false.
func replicateMin(passes [][]int64) (mins []int64, ok bool) {
	if len(passes) == 0 {
		return nil, true
	}
	mins = append([]int64(nil), passes[0]...)
	for _, p := range passes[1:] {
		if len(p) != len(mins) {
			return nil, false
		}
		for i, v := range p {
			if v < mins[i] {
				mins[i] = v
			}
		}
	}
	return mins, true
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is one reported quantile with the sample count it was taken
// from, so a reader can tell a p99 over 80 samples from one over 20000.
type quantile struct {
	value float64
	n     int
}

// quantileOf returns the q-quantile of xs (nearest rank on the sorted
// samples). xs is not modified.
func quantileOf(xs []int64, q float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return quantile{value: float64(s[rank]), n: len(s)}
}

func sortedF(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianF is the median of a small float sample (pass-level values).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedF(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spreadPct is (max-min)/median of a sample, in percent: the noise
// figure -qualify prints and proc.pass_spread_pct reports.
func spreadPct(xs []float64) float64 {
	med := medianF(xs)
	if len(xs) == 0 || med == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return 100 * (hi - lo) / math.Abs(med)
}

// passOrder is the execution schedule: pass-major, so replicate k of
// every workload runs before replicate k+1 of any. A disturbed stretch
// of wall clock then spoils at most one replicate of each workload
// instead of every replicate of one.
type passSlot struct{ pass, workload int }

func passOrder(workloads, passes int) []passSlot {
	out := make([]passSlot, 0, workloads*passes)
	for p := 0; p < passes; p++ {
		for w := 0; w < workloads; w++ {
			out = append(out, passSlot{pass: p, workload: w})
		}
	}
	return out
}
