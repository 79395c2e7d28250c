// Package planner implements Tableau's table-generation procedure
// (paper Sec. 5): it maps each vCPU's (utilization, latency-goal) pair to
// a periodic real-time task, assigns tasks to cores with worst-fit-
// decreasing partitioning, falls back to C=D semi-partitioning and then
// to an optimal (DP-Fair style) cluster scheduler, simulates EDF on each
// core up to the hyperperiod, and post-processes the result into the
// slice-indexed scheduling tables the dispatcher consumes.
package planner

import (
	"fmt"
	"sort"

	"tableau/internal/periodic"
)

// MaxHyperperiod is the bound on table length used to select candidate
// periods: 102,702,600 ns (~102.7 ms). The paper chose this value because
// it has an unusually large number of integer divisors above the 100 µs
// enforceability threshold (186 of them), so vCPUs with diverse latency
// goals can share a short table.
const MaxHyperperiod = 102_702_600

// MinPeriod is the smallest enforceable period: reservations shorter than
// 100 µs cannot be dispatched reliably because scheduling overheads
// dominate (paper Sec. 5).
const MinPeriod = 100_000

// CandidatePeriods returns the set F of all integer divisors of
// MaxHyperperiod that are >= MinPeriod, in increasing order. The planner
// always picks task periods from this set, which caps every table length
// at MaxHyperperiod.
func CandidatePeriods() []int64 {
	return candidatePeriods(MaxHyperperiod, MinPeriod)
}

func candidatePeriods(hyperperiod, minPeriod int64) []int64 {
	var ds []int64
	for d := int64(1); d*d <= hyperperiod; d++ {
		if hyperperiod%d != 0 {
			continue
		}
		if d >= minPeriod {
			ds = append(ds, d)
		}
		if q := hyperperiod / d; q != d && q >= minPeriod {
			ds = append(ds, q)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// Util is an exact utilization expressed as the rational Num/Den. The
// zero value is invalid; use UtilFromPPM or construct Num/Den directly.
type Util struct {
	Num int64
	Den int64
}

// UtilFromPPM returns the utilization ppm/1,000,000.
func UtilFromPPM(ppm int64) Util { return Util{Num: ppm, Den: 1_000_000} }

// FairShare returns the fair-share utilization m/n used when no explicit
// SLA is configured: m cores divided among n vCPUs (paper Sec. 5).
func FairShare(cores, vcpus int) Util { return Util{Num: int64(cores), Den: int64(vcpus)} }

// Validate reports whether u is a well-formed utilization in (0, 1].
func (u Util) Validate() error {
	if u.Den <= 0 {
		return fmt.Errorf("planner: utilization denominator %d must be positive", u.Den)
	}
	if u.Num <= 0 {
		return fmt.Errorf("planner: utilization %d/%d must be positive", u.Num, u.Den)
	}
	if u.Num > u.Den {
		return fmt.Errorf("planner: utilization %d/%d exceeds 1", u.Num, u.Den)
	}
	return nil
}

// IsFull reports whether u == 1 (the vCPU needs a dedicated core).
func (u Util) IsFull() bool { return u.Num == u.Den }

// PPM returns the utilization in parts-per-million, rounded up.
func (u Util) PPM() int64 {
	return (u.Num*1_000_000 + u.Den - 1) / u.Den
}

// Float returns the utilization as a float64 (reporting only).
func (u Util) Float() float64 { return float64(u.Num) / float64(u.Den) }

// Cost returns the execution budget ceil(u * period) in ns.
func (u Util) Cost(period int64) int64 {
	return (u.Num*period + u.Den - 1) / u.Den
}

// PickPeriod selects a candidate period T such that the worst-case
// blackout bound 2*(1-U)*T is at most the latency goal L (paper Sec. 5):
// a periodic task that receives C=U*T units per period can go without
// service for at most 2*(T-C) time units.
//
// Among the candidates satisfying the bound, PickPeriod prefers the
// largest T for which the budget U*T is an exact integer number of
// nanoseconds. An exact budget means the task's table utilization equals
// the reserved utilization precisely, which keeps exactly-full cores
// (e.g. four 25% vCPUs) packable; with a ceil()ed budget the sub-ns
// inflation would push such cores over capacity. If no in-bound
// candidate divides evenly, the largest in-bound candidate is used with
// a rounded-up budget.
//
// The comparison is exact: 2*(1-U)*T <= L  <=>  2*(Den-Num)*T <= L*Den.
// candidates must ascend, as CandidatePeriods returns them. ok is false
// when even the smallest candidate period violates the goal, i.e. the
// latency goal is too tight to be enforceable.
func PickPeriod(u Util, latencyGoal int64, candidates []int64) (period int64, ok bool) {
	if latencyGoal <= 0 {
		return 0, false
	}
	slack := 2 * (u.Den - u.Num) // per unit of T, scaled by Den
	// Guard multiplication overflow: slack <= 2*Den <= 2e6 scale,
	// t <= ~1e8, product <= ~2e14 — safe; latencyGoal*Den may be
	// large but callers pass goals <= seconds (1e9) and Den <= 1e6,
	// so <= 1e15 — safe.
	bound := latencyGoal * u.Den
	// The candidates ascend, so those within the bound are a prefix.
	inBound := sort.Search(len(candidates), func(i int) bool { return slack*candidates[i] > bound })
	var fallback int64
	for i := inBound - 1; i >= 0; i-- {
		t := candidates[i]
		if (u.Num*t)%u.Den == 0 {
			return t, true
		}
		if fallback == 0 {
			fallback = t
		}
	}
	if fallback != 0 {
		return fallback, true
	}
	return 0, false
}

// TaskFor maps a vCPU specification to its periodic task (paper Sec. 5):
// the period comes from PickPeriod and the budget is ceil(U*T), so the
// task's actual utilization is at least the reserved utilization.
func TaskFor(name string, group int, u Util, latencyGoal int64, candidates []int64) (periodic.Task, error) {
	if err := u.Validate(); err != nil {
		return periodic.Task{}, err
	}
	t, ok := PickPeriod(u, latencyGoal, candidates)
	if !ok {
		return periodic.Task{}, fmt.Errorf("planner: vCPU %q: latency goal %d ns unenforceable (minimum candidate period %d ns, utilization %d/%d)",
			name, latencyGoal, candidates[0], u.Num, u.Den)
	}
	c := u.Cost(t)
	if c > t {
		c = t
	}
	return periodic.Task{
		Name:     name,
		Group:    group,
		WCET:     c,
		Deadline: t,
		Period:   t,
	}, nil
}
