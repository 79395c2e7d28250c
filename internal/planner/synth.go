package planner

import (
	"slices"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// This file is stage 4 of planning — the per-core EDF simulations that
// materialize the per-core allocation lists. Each job reads only its own core's task
// set.

// synthJob is one core's stage-4 synthesis work. When adoptFrom is
// non-nil the core is pinned and its task set survived placement
// untouched, so its previous final (post-coalesce) schedule is the
// core's: the EDF simulation still runs for the preemption/switch
// counters (a SliceCache hit makes it nearly free), but tiling is
// skipped and the core takes adoptFrom's allocation list as it is — its
// vCPUs kept their ids.
type synthJob struct {
	core      int
	tasks     periodic.TaskSet
	adoptFrom *table.CoreTable

	// Filled by the simulation pass.
	sim   *periodic.EDFResult
	coreH int64
}

// synthesizeCores simulates every job in order, then lays every core's
// schedule into the workspace's tiled buffer — grown once, to the sum of
// what the simulations say each core can need — and merges the counters
// into res. A failed simulation does not stop the rest — every core's
// still runs and feeds the slice memo — and the first failure is what
// the caller sees.
func synthesizeCores(ws *workspace, tbl *table.Table, res *Result, tableLen int64, opts Options) error {
	var firstErr error
	need := 0
	for i := range ws.jobs {
		j := &ws.jobs[i]
		hit, err := simulateCore(ws, j, opts.Slices)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if hit {
			res.SliceHits++
		}
		reps := int(tableLen / j.coreH)
		res.Preemptions += j.sim.Preemptions * reps
		res.ContextSwitches += j.sim.ContextSwitches * reps
		if j.adoptFrom == nil {
			need += reps * len(j.sim.Slots)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	ws.tiled = slices.Grow(ws.tiled, need)
	for _, j := range ws.jobs {
		ct := &tbl.Cores[j.core]
		if j.adoptFrom != nil {
			ct.Allocs = j.adoptFrom.Allocs
			ws.adopted[j.core] = true
			continue
		}
		n := len(ws.tiled)
		ws.tiled = tileSlots(ws.tiled, j.sim.Slots, j.tasks, ws.ids, j.coreH, tableLen)
		ct.Allocs = ws.tiled[n:len(ws.tiled):len(ws.tiled)]
	}
	return nil
}
