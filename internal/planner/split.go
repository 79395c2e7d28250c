package planner

import (
	"sort"

	"tableau/internal/periodic"
)

// splitCD attempts to place task tk by C=D semi-partitioning (paper
// Sec. 5, after Burns et al. 2012). The task is cut into subtasks with
// precedence encoded through release offsets:
//
//   - every subtask except the last has deadline equal to its budget
//     ("C=D"), so under EDF it executes immediately and contiguously at
//     its release, occupying exactly [k*T+offset, k*T+offset+budget);
//   - the final subtask carries the remaining budget with deadline
//     stretching to the end of the period.
//
// Because subtask j+1 is released exactly when subtask j's reserved
// window ends, the subtasks can never execute in parallel — the property
// the dispatcher's migration protocol (and table.Validate) depends on.
//
// minChunk rejects splits that would create unenforceably small pieces.
// On success the subtasks are added to the chosen cores and returned;
// the operation is atomic — on failure no core state is modified.
func splitCD(cores []*coreState, tk periodic.Task, minChunk int64) ([]periodic.Task, bool) {
	if minChunk <= 0 {
		minChunk = 1
	}
	type placement struct {
		core *coreState
		task periodic.Task
	}
	var placements []placement
	used := make(map[int]bool)

	remaining := tk.WCET
	offset := tk.Offset // always 0 for fresh vCPU tasks
	for piece := 0; piece < len(cores); piece++ {
		// First preference: finish the task here as a constrained tail.
		tailDeadline := tk.Period - offset
		if best := bestTailCore(cores, used, tailDeadline, tk.Period, remaining); best != nil {
			placements = append(placements, placement{best, periodic.Task{
				Name:     tk.Name,
				Group:    tk.Group,
				Offset:   offset,
				WCET:     remaining,
				Deadline: tailDeadline,
				Period:   tk.Period,
			}})
			for _, p := range placements {
				p.core.add(p.task)
			}
			out := make([]periodic.Task, len(placements))
			for i, p := range placements {
				out[i] = p.task
			}
			return out, true
		}
		// Otherwise carve the largest feasible C=D head from the core
		// with the most room.
		core, budget := bestHeadCore(cores, used, tk.Period, remaining)
		if core == nil || budget < minChunk {
			return nil, false
		}
		if budget >= remaining {
			// A full-remaining C=D head is also a valid tail; take it.
			budget = remaining
		}
		placements = append(placements, placement{core, periodic.Task{
			Name:     tk.Name,
			Group:    tk.Group,
			Offset:   offset,
			WCET:     budget,
			Deadline: budget,
			Period:   tk.Period,
		}})
		used[core.id] = true
		remaining -= budget
		offset += budget
		if remaining == 0 {
			for _, p := range placements {
				p.core.add(p.task)
			}
			out := make([]periodic.Task, len(placements))
			for i, p := range placements {
				out[i] = p.task
			}
			return out, true
		}
	}
	return nil, false
}

// bestTailCore returns a core (not in used) that can accept the full
// remaining budget as a constrained-deadline tail, preferring the
// least-utilized core, or nil.
func bestTailCore(cores []*coreState, used map[int]bool, deadline, period, budget int64) *coreState {
	if deadline < budget {
		return nil
	}
	cands := eligibleCores(cores, used)
	for _, c := range cands {
		maxC, ok := c.tasks.MaxFeasibleConstrained(deadline, period, budget)
		if ok && maxC >= budget {
			return c
		}
	}
	return nil
}

// bestHeadCore returns the core (not in used) offering the largest
// feasible C=D budget for the given period, together with that budget.
func bestHeadCore(cores []*coreState, used map[int]bool, period, maxBudget int64) (*coreState, int64) {
	var best *coreState
	var bestBudget int64
	for _, c := range eligibleCores(cores, used) {
		b, ok := c.tasks.MaxFeasibleCEqualsD(period, maxBudget)
		if ok && b > bestBudget {
			best, bestBudget = c, b
		}
	}
	return best, bestBudget
}

// eligibleCores returns non-dedicated cores not in used, least-utilized
// first (ties by id).
func eligibleCores(cores []*coreState, used map[int]bool) []*coreState {
	out := make([]*coreState, 0, len(cores))
	for _, c := range cores {
		if !c.dedicated && !used[c.id] {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if c := out[i].util.cmp(&out[j].util); c != 0 {
			return c < 0
		}
		return out[i].id < out[j].id
	})
	return out
}
