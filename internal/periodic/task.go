// Package periodic implements the periodic (Liu & Layland) and
// constrained-deadline real-time task models used by the Tableau planner,
// together with the schedulability machinery the paper's table-generation
// procedure relies on: exact utilization arithmetic, hyperperiod
// computation, demand-bound functions, the QPA exact EDF test, and a
// reference uniprocessor EDF simulator.
//
// All times are int64 nanoseconds. No floating point is used in any
// admission or schedulability decision; utilization comparisons are done
// with cross-multiplication or math/big rationals so that results are
// exact.
package periodic

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
)

// A Task is a periodic real-time task with a release offset and a
// constrained deadline. It releases a job at Offset + k*Period for every
// k >= 0; each job requires WCET units of processor time and must finish
// within Deadline of its release (Deadline <= Period).
//
// In Tableau each vCPU is represented by one Task (or, after C=D
// splitting, by several subtasks that share a Group).
type Task struct {
	// Name identifies the task (typically the vCPU name). Subtasks
	// produced by splitting share the Name of the original task.
	Name string

	// Group identifies the schedulable entity the task belongs to.
	// Subtasks of a split vCPU share a Group and must never run in
	// parallel. For unsplit tasks Group is the task's own index.
	Group int

	// Offset is the release time of the first job, in ns.
	Offset int64

	// WCET is the worst-case execution time per job (C), in ns.
	WCET int64

	// Deadline is the relative deadline (D), in ns. Must satisfy
	// 0 < WCET <= Deadline <= Period.
	Deadline int64

	// Period is the inter-release separation (T), in ns.
	Period int64
}

// Validate reports whether the task parameters are well formed.
func (t Task) Validate() error {
	switch {
	case t.Offset < 0:
		return fmt.Errorf("task %q: negative offset %d", t.Name, t.Offset)
	case t.WCET <= 0:
		return fmt.Errorf("task %q: non-positive WCET %d", t.Name, t.WCET)
	case t.Period <= 0:
		return fmt.Errorf("task %q: non-positive period %d", t.Name, t.Period)
	case t.Deadline < t.WCET:
		return fmt.Errorf("task %q: deadline %d < WCET %d", t.Name, t.Deadline, t.WCET)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %q: deadline %d > period %d (constrained-deadline model only)", t.Name, t.Deadline, t.Period)
	}
	return nil
}

// Implicit reports whether the task has an implicit deadline (D == T).
func (t Task) Implicit() bool { return t.Deadline == t.Period }

// Util returns the task's utilization C/T as an exact rational.
func (t Task) Util() *big.Rat { return big.NewRat(t.WCET, t.Period) }

// UtilFloat returns the task's utilization as a float64, for reporting
// only (never used in admission decisions).
func (t Task) UtilFloat() float64 { return float64(t.WCET) / float64(t.Period) }

// Density returns the task's density C/min(D,T) as an exact rational.
func (t Task) Density() *big.Rat { return big.NewRat(t.WCET, t.Deadline) }

// String returns a compact representation, e.g. "web0(C=3.2ms,D=T=12.8ms)".
func (t Task) String() string {
	if t.Implicit() {
		return fmt.Sprintf("%s(C=%d,T=%d)", t.Name, t.WCET, t.Period)
	}
	return fmt.Sprintf("%s(O=%d,C=%d,D=%d,T=%d)", t.Name, t.Offset, t.WCET, t.Deadline, t.Period)
}

// A TaskSet is a collection of tasks assigned to one processor (or, for
// global analyses, to a cluster of processors).
type TaskSet []Task

// Validate checks every task in the set.
func (ts TaskSet) Validate() error {
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalUtil returns the exact total utilization of the set.
func (ts TaskSet) TotalUtil() *big.Rat {
	sum := new(big.Rat)
	for _, t := range ts {
		sum.Add(sum, t.Util())
	}
	return sum
}

// TotalUtilFloat returns the total utilization as a float64 (reporting
// only).
func (ts TaskSet) TotalUtilFloat() float64 {
	f, _ := ts.TotalUtil().Float64()
	return f
}

// UtilAtMost reports whether the exact total utilization is <= m (for an
// m-processor platform).
func (ts TaskSet) UtilAtMost(m int64) bool {
	return ts.TotalUtil().Cmp(new(big.Rat).SetInt64(m)) <= 0
}

// MaxDeadline returns the largest relative deadline in the set, or 0 for
// an empty set.
func (ts TaskSet) MaxDeadline() int64 {
	var d int64
	for _, t := range ts {
		if t.Deadline > d {
			d = t.Deadline
		}
	}
	return d
}

// MinDeadline returns the smallest relative deadline in the set, or 0 for
// an empty set.
func (ts TaskSet) MinDeadline() int64 {
	if len(ts) == 0 {
		return 0
	}
	d := ts[0].Deadline
	for _, t := range ts[1:] {
		if t.Deadline < d {
			d = t.Deadline
		}
	}
	return d
}

// Clone returns a deep copy of the set.
func (ts TaskSet) Clone() TaskSet {
	out := make(TaskSet, len(ts))
	copy(out, ts)
	return out
}

// SortByUtilDesc sorts the set by decreasing utilization (ties broken by
// name for determinism), the order required by worst-fit-decreasing
// partitioning. The sort is stable and allocates nothing.
func (ts TaskSet) SortByUtilDesc() {
	slices.SortStableFunc(ts, func(a, b Task) int {
		if c := cmpUtilDesc(a, b); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// SortByUtilStable sorts by decreasing utilization preserving the
// existing order among equal-utilization tasks (used by the planner's
// split-rotation, which pre-rotates the slice).
func (ts TaskSet) SortByUtilStable() {
	slices.SortStableFunc(ts, cmpUtilDesc)
}

// cmpUtilDesc orders a before b when a's utilization is larger:
// Ua > Ub  <=>  Ca*Tb > Cb*Ta (all positive).
func cmpUtilDesc(a, b Task) int {
	l, r := a.WCET*b.Period, b.WCET*a.Period
	switch {
	case l > r:
		return -1
	case l < r:
		return 1
	}
	return 0
}

// Hyperperiod returns the least common multiple of all task periods. It
// returns an error if the set is empty or the LCM overflows int64.
func (ts TaskSet) Hyperperiod() (int64, error) {
	if len(ts) == 0 {
		return 0, errors.New("periodic: hyperperiod of empty task set")
	}
	h := int64(1)
	for _, t := range ts {
		var err error
		h, err = LCM(h, t.Period)
		if err != nil {
			return 0, err
		}
	}
	return h, nil
}

// ErrOverflow is returned when an LCM computation exceeds int64.
var ErrOverflow = errors.New("periodic: int64 overflow")

// GCD returns the greatest common divisor of a and b (both > 0).
func GCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or ErrOverflow.
func LCM(a, b int64) (int64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("periodic: LCM of non-positive values %d, %d", a, b)
	}
	g := GCD(a, b)
	q := a / g
	if q > (1<<63-1)/b {
		return 0, ErrOverflow
	}
	return q * b, nil
}
