package planner

import (
	"fmt"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// This file is stage 4 of planning — the per-core EDF simulations that
// materialize slice tables. Each job reads only its own core's task
// set, and every job runs (and feeds the slice memo) before any output
// is merged or any error returned.

// synthJob is one core's stage-4 synthesis work. When adopt is
// non-nil the core is pinned and its previous final (post-coalesce)
// schedule is reused verbatim: the EDF simulation still runs for the
// preemption/switch counters (a SliceCache hit makes it nearly free),
// but tiling is skipped and the merge installs adopt instead, then
// transplants the slice index from adoptFrom — the adopted intervals
// are byte-identical to the source core's, only vCPU ids differ, and
// the index never references ids.
type synthJob struct {
	core      int
	tasks     periodic.TaskSet
	adopt     []table.Alloc
	adoptFrom *table.CoreTable
}

// synthOut is one job's result, parked at the job's index until the
// in-order merge.
type synthOut struct {
	allocs      []table.Alloc
	preemptions int
	switches    int
	sliceHit    bool
	err         error
}

// synthesizeCores runs every job, then merges the outputs in job order
// into tbl and res.
func synthesizeCores(tbl *table.Table, res *Result, jobs []synthJob, tableLen int64, opts Options) error {
	if len(jobs) == 0 {
		return nil
	}
	outs := make([]synthOut, len(jobs))
	for i, j := range jobs {
		o := &outs[i]
		coreH, err := j.tasks.Hyperperiod()
		if err != nil {
			o.err = err
			continue
		}
		sim, hit, err := simulateCore(j.tasks, coreH, opts.Slices)
		if err != nil {
			o.err = fmt.Errorf("planner: core %d EDF simulation failed: %w", j.core, err)
			continue
		}
		o.sliceHit = hit
		reps := int(tableLen / coreH)
		o.preemptions = sim.Preemptions * reps
		o.switches = sim.ContextSwitches * reps
		if j.adopt != nil {
			o.allocs = j.adopt
		} else {
			o.allocs = tileSlots(sim.Slots, j.tasks, coreH, tableLen)
		}
	}

	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return o.err
		}
		tbl.Cores[jobs[i].core].Allocs = o.allocs
		if jobs[i].adopt != nil {
			tbl.Cores[jobs[i].core].TransplantSlices(jobs[i].adoptFrom)
		}
		res.Preemptions += o.preemptions
		res.ContextSwitches += o.switches
		if o.sliceHit {
			res.SliceHits++
		}
	}
	return nil
}
