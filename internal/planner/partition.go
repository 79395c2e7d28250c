package planner

import "tableau/internal/periodic"

// coreState tracks one physical core's task assignment during planning.
type coreState struct {
	id    int
	tasks periodic.TaskSet
	util  frac
	// constrained is true once the core hosts a subtask with D < T
	// (from C=D splitting); such cores need the full QPA test and are
	// excluded from cluster formation.
	constrained bool
	// dedicated marks a core given wholly to a U=1 vCPU.
	dedicated bool
}

// fits reports whether adding tk keeps the core EDF-schedulable. For
// cores holding only implicit-deadline tasks this is the exact
// utilization bound; otherwise the QPA test runs.
func (c *coreState) fits(tk periodic.Task) bool {
	if c.dedicated {
		return false
	}
	u := c.util.clone()
	u.add(tk.WCET, tk.Period)
	if u.cmpInt(1) > 0 {
		return false
	}
	if !c.constrained && tk.Implicit() {
		return true
	}
	aug := append(c.tasks.Clone(), tk)
	return aug.EDFSchedulable()
}

func (c *coreState) add(tk periodic.Task) {
	c.tasks = append(c.tasks, tk)
	c.util.add(tk.WCET, tk.Period)
	if !tk.Implicit() {
		c.constrained = true
	}
}

// partitionWFD assigns tasks to cores using the worst-fit-decreasing
// heuristic (paper Sec. 5): tasks in order of decreasing utilization,
// each placed on the least-utilized core that can accept it. This
// spreads load evenly across cores. It returns the tasks that could not
// be placed on any core (a window into the workspace).
func partitionWFD(ws *workspace, cores []*coreState, tasks periodic.TaskSet) (unplaced periodic.TaskSet) {
	order := append(ws.order[:0], tasks...)
	order.SortByUtilDesc()
	ws.order = order
	// The unplaced are kept in place, at the front of order: by the time
	// slot k is overwritten, task k has been read.
	unplaced = order[:0]
	for _, tk := range order {
		if c := leastUtilizedFit(cores, tk); c != nil {
			c.add(tk)
		} else {
			unplaced = append(unplaced, tk)
		}
	}
	return unplaced
}

// leastUtilizedFit returns the least-utilized core on which tk fits, or
// nil; ties are broken by core id for determinism. Candidates are tried
// in increasing (utilization, id) order without sorting: each round
// scans for the smallest key above the last one refused, so the common
// case — the emptiest core fits — is one pass and no scratch.
func leastUtilizedFit(cores []*coreState, tk periodic.Task) *coreState {
	var refused *coreState
	for {
		var best *coreState
		for _, c := range cores {
			if c.dedicated {
				continue
			}
			if refused != nil && !emptierThan(refused, c) {
				continue
			}
			if best == nil || emptierThan(c, best) {
				best = c
			}
		}
		if best == nil || best.fits(tk) {
			return best
		}
		refused = best
	}
}

// emptierThan is the worst-fit order: lower utilization first, then
// lower id.
func emptierThan(a, b *coreState) bool {
	if c := a.util.cmp(&b.util); c != 0 {
		return c < 0
	}
	return a.id < b.id
}
