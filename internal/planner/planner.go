package planner

import (
	"fmt"
	"slices"
	"sync"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// Stage records which of the planner's three techniques produced the
// final table (paper Sec. 5).
type Stage int

const (
	// StagePartitioned: worst-fit-decreasing partitioning sufficed.
	StagePartitioned Stage = iota
	// StageSemiPartitioned: at least one vCPU was C=D-split.
	StageSemiPartitioned
	// StageClustered: the optimal cluster scheduler was needed.
	StageClustered
)

func (s Stage) String() string {
	switch s {
	case StagePartitioned:
		return "partitioned"
	case StageSemiPartitioned:
		return "semi-partitioned"
	case StageClustered:
		return "clustered"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// SplitInfo describes one C=D-split vCPU in the final plan.
type SplitInfo struct {
	VCPU   int   // index into the spec slice
	Pieces int   // number of subtasks
	Cores  []int // cores hosting the subtasks, in precedence order
}

// Result is a successful planning outcome.
type Result struct {
	// Table is the generated scheduling table, validated, coalesced,
	// held to the slice bound, and proven to satisfy Guarantees. The
	// dispatcher that installs it builds its slice index. It names vCPUs
	// by VCPUSpec.ID. A core PlanIncremental adopted is the previous
	// Result's allocation list itself: tables are never written.
	Table *table.Table
	// Guarantees holds the per-vCPU contracts the table was checked
	// against, in spec order and by vCPU ID: service per period window
	// and maximum blackout.
	Guarantees []table.Guarantee
	// Stage is the strongest technique that was needed.
	Stage Stage
	// Tasks is the final task set, including split subtasks; Task.Group
	// is the index of the owning vCPU spec.
	Tasks periodic.TaskSet
	// Splits describes each split vCPU.
	Splits []SplitInfo
	// ClusterCores lists the cores scheduled by the cluster stage
	// (empty unless Stage == StageClustered).
	ClusterCores []int
	// Preemptions and ContextSwitches count events per table cycle,
	// summed over all cores (reported by the ablation experiment).
	Preemptions     int
	ContextSwitches int
	// SwitchesSaved counts context switches removed by the peephole
	// pass (zero unless Options.Peephole).
	SwitchesSaved int
	// CoreTasks records, per planner core id, the ordered task set the
	// per-core EDF stage simulated for that core (nil for dedicated,
	// cluster-scheduled, and empty cores). PlanIncremental pins these
	// assignments on the next plan so cores untouched by a churn batch
	// skip partitioning and re-simulation.
	CoreTasks []periodic.TaskSet
	// Incremental reports the plan reused per-core assignments from a
	// previous result (PlanIncremental's pinning path); PinnedCores
	// counts the cores reused that way.
	Incremental bool
	PinnedCores int
	// SliceHits counts cores whose EDF simulation was served from
	// Options.Slices instead of being re-run.
	SliceHits int
	// FromCache is set by consumers (core.System) on clones served from
	// a whole-problem cache hit; Plan itself always leaves it false.
	FromCache bool
}

// Clone returns a copy of the result that shares no mutable slice
// state with the original: Guarantees, Tasks, Splits (including each
// split's Cores list), and ClusterCores are all deep-copied. Callers
// that post-process a cached plan — rewriting guarantees or split
// placements — must work on a clone so the shared original stays intact
// for other cache users. The Table pointer is shared: tables are
// immutable by convention (consumers build replacements, they never edit
// one in place).
func (r *Result) Clone() *Result {
	out := *r
	out.Guarantees = append([]table.Guarantee(nil), r.Guarantees...)
	out.Tasks = append(periodic.TaskSet(nil), r.Tasks...)
	out.ClusterCores = append([]int(nil), r.ClusterCores...)
	out.Splits = append([]SplitInfo(nil), r.Splits...)
	for i := range out.Splits {
		out.Splits[i].Cores = append([]int(nil), out.Splits[i].Cores...)
	}
	if r.CoreTasks != nil {
		out.CoreTasks = make([]periodic.TaskSet, len(r.CoreTasks))
		for i, ts := range r.CoreTasks {
			out.CoreTasks[i] = append(periodic.TaskSet(nil), ts...)
		}
	}
	return &out
}

var (
	candOnce sync.Once
	candSet  []int64
)

func candidates() []int64 {
	candOnce.Do(func() { candSet = CandidatePeriods() })
	return candSet
}

// Plan generates a scheduling table for the given vCPUs on opts.Cores
// physical cores. It implements the full progression from the paper:
// period selection, worst-fit-decreasing partitioning, C=D
// semi-partitioning, and DP-Fair cluster scheduling, followed by
// coalescing and slice-table construction. The returned table has been
// checked against the per-vCPU guarantees; Plan never returns an
// unverified table.
func Plan(specs []VCPUSpec, opts Options) (*Result, error) {
	ws := getWorkspace(len(specs))
	defer putWorkspace(ws)
	return planWith(ws, specs, opts, nil)
}

// planWith is Plan plus an optional pinning: task sets frozen onto
// their previous cores by the incremental path. Pinned specs skip
// period selection and partitioning; their tasks are seeded into the
// core states verbatim, so every later stage (splitting, clustering,
// synthesis, coalescing, the final Check) treats them exactly like
// freshly placed tasks. Correctness therefore never depends on the
// pinning being fresh: the final gate (gate.go) still covers the result.
//
// Every intermediate lives in ws; the Result's memory is allocated here,
// exactly sized, and shares nothing with ws once planWith returns.
func planWith(ws *workspace, specs []VCPUSpec, opts Options, pin *pinning) (*Result, error) {
	if err := admit(ws, specs, opts.Cores); err != nil {
		return nil, err
	}
	ids := ws.number(specs)
	res := &Result{Stage: StagePartitioned}
	cores := ws.coreStates(opts.Cores)

	// Dedicated cores for U=1 vCPUs (paper Sec. 5: excluded from
	// further consideration).
	ws.dedicatedOf = filled(ws.dedicatedOf, len(specs), -1)
	dedicatedOf := ws.dedicatedOf
	nextDedicated := 0
	tasks := ws.tasks[:0]
	for i, s := range specs {
		if s.Util.IsFull() {
			if nextDedicated >= len(cores) {
				return nil, fmt.Errorf("planner: not enough cores for dedicated vCPU %q", s.Name)
			}
			cores[nextDedicated].dedicated = true
			dedicatedOf[i] = int32(nextDedicated)
			nextDedicated++
			continue
		}
		if pin != nil && pin.pinnedSpec[i] {
			continue // placement frozen; seeded below
		}
		tk, err := TaskFor(s.Name, i, s.Util, s.LatencyGoal, candidates())
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, tk)
	}
	ws.tasks = tasks
	if pin != nil {
		if err := seedPinned(ws, cores, pin, res); err != nil {
			return nil, err
		}
	}

	// Stage 1: partitioning.
	unplaced := partitionWFD(ws, cores, tasks)

	// Stage 2: C=D semi-partitioning.
	if len(unplaced) > 0 && !opts.DisableSplitting {
		// Split larger tasks first: they are the hardest to place.
		unplaced.SortByUtilDesc()
		still := unplaced[:0]
		for _, tk := range unplaced {
			pieces, ok := splitCD(cores, tk, coalesceThreshold)
			if !ok {
				still = append(still, tk)
				continue
			}
			res.Stage = StageSemiPartitioned
			info := SplitInfo{VCPU: tk.Group, Pieces: len(pieces)}
			for _, p := range pieces {
				info.Cores = append(info.Cores, coreHosting(cores, p))
			}
			res.Splits = append(res.Splits, info)
		}
		unplaced = still
	}

	// Stage 3: cluster ("localized optimal") scheduling.
	var clusterSlots [][]periodic.Slot
	var clusterTasks periodic.TaskSet
	var clusterCores []*coreState
	if len(unplaced) > 0 {
		if opts.DisableClustering {
			return nil, fmt.Errorf("planner: %d vCPUs unplaceable and clustering disabled", len(unplaced))
		}
		var err error
		clusterCores, clusterTasks, err = growCluster(cores, unplaced)
		if err != nil {
			return nil, err
		}
		h, err := clusterTasks.Hyperperiod()
		if err != nil {
			return nil, err
		}
		clusterSlots, err = clusterSchedule(clusterTasks, len(clusterCores), h)
		if err != nil {
			return nil, err
		}
		res.Stage = StageClustered
		for _, c := range clusterCores {
			res.ClusterCores = append(res.ClusterCores, c.id)
			c.tasks = c.tasks[:0] // now scheduled by the cluster
		}
	}

	// Global table length: the hyperperiod of every chosen period. All
	// periods divide MaxHyperperiod, so this never exceeds ~102.7 ms.
	tableLen := int64(0)
	addPeriod := func(p int64) error {
		if tableLen == 0 {
			tableLen = p
			return nil
		}
		var err error
		tableLen, err = periodic.LCM(tableLen, p)
		return err
	}
	for _, c := range cores {
		for _, tk := range c.tasks {
			if err := addPeriod(tk.Period); err != nil {
				return nil, err
			}
		}
	}
	for _, tk := range clusterTasks {
		if err := addPeriod(tk.Period); err != nil {
			return nil, err
		}
	}
	if tableLen == 0 {
		// Only dedicated vCPUs (or none): any cycle length works.
		tableLen = 10_000_000
	}
	if opts.TableLength > 0 {
		if opts.TableLength%tableLen != 0 {
			return nil, fmt.Errorf("planner: requested table length %d is not a multiple of the hyperperiod %d", opts.TableLength, tableLen)
		}
		tableLen = opts.TableLength
	}

	// Materialize per-core allocation lists. Until the copy-out at the
	// end they are windows into the workspace. The table speaks in vCPU
	// ids: an id no spec holds gets a fenced entry.
	tbl := &table.Table{Len: tableLen, Generation: 1}
	tbl.Cores = make([]table.CoreTable, opts.Cores)
	for i := range tbl.Cores {
		tbl.Cores[i].Core = i
	}
	if len(specs) > 0 {
		tbl.VCPUs = make([]table.VCPUInfo, ids[len(ids)-1]+1)
	}
	if len(tbl.VCPUs) > len(specs) {
		for v := range tbl.VCPUs {
			tbl.VCPUs[v] = table.VCPUInfo{Capped: true, HomeCore: -1}
		}
	}
	for i := range specs {
		tbl.VCPUs[ids[i]] = table.VCPUInfo{
			Name:           specs[i].Name,
			Capped:         specs[i].Capped,
			HomeCore:       -1,
			UtilizationPPM: specs[i].Util.PPM(),
			LatencyGoal:    specs[i].LatencyGoal,
		}
	}
	ws.tiled = ws.tiled[:0]
	for v, c := range dedicatedOf {
		if c < 0 {
			continue
		}
		n := len(ws.tiled)
		ws.tiled = append(ws.tiled, table.Alloc{Start: 0, End: tableLen, VCPU: ids[v]})
		tbl.Cores[c].Allocs = ws.tiled[n : n+1 : n+1]
		tbl.VCPUs[ids[v]].HomeCore = int(c)
	}
	// Schedule adoption: a pinned core whose task set survived placement
	// untouched (no new VM was packed onto it) is the previous plan's
	// final post-coalesce schedule — the same list, shared: its vCPUs
	// kept their ids. Synthesis then skips tiling and the coalesce pass
	// skips the core entirely, making post-processing O(dirty cores).
	// Disabled under the peephole pass, whose SwitchesSaved accounting
	// would otherwise drift. Safety never rests on this: the final
	// gate below covers adopted output like any other.
	ws.adopted = sized(ws.adopted, opts.Cores)
	adopted := ws.adopted
	adoptable := pin != nil && !opts.Peephole && pin.prevTable != nil &&
		pin.prevTable.Len == tableLen && len(pin.prevTable.Cores) == opts.Cores
	ws.jobs = ws.jobs[:0]
	for _, c := range cores {
		if len(c.tasks) == 0 {
			continue // dedicated, cluster-scheduled, or empty
		}
		j := synthJob{core: c.id, tasks: c.tasks}
		if adoptable && len(pin.coreTasks[c.id]) > 0 && slices.Equal(c.tasks, pin.coreTasks[c.id]) {
			j.adoptFrom = &pin.prevTable.Cores[c.id]
		}
		ws.jobs = append(ws.jobs, j)
	}
	if err := synthesizeCores(ws, tbl, res, tableLen, opts); err != nil {
		return nil, err
	}
	if len(clusterSlots) > 0 {
		clusterH, err := clusterTasks.Hyperperiod()
		if err != nil {
			return nil, err
		}
		for i, c := range clusterCores {
			n := len(ws.tiled)
			ws.tiled = tileSlots(ws.tiled, clusterSlots[i], clusterTasks, ids, clusterH, tableLen)
			tbl.Cores[c.id].Allocs = ws.tiled[n:len(ws.tiled):len(ws.tiled)]
			res.ContextSwitches += len(clusterSlots[i]) * int(tableLen/clusterH)
		}
	}

	res.Guarantees = guaranteesFor(ws, specs, ids, cores, clusterTasks, tableLen)

	// The gate's scope, split marks and home cores are settled before
	// coalescing, which changes none of them (see homeAndSplit).
	known, gated := finalGate(ws, tbl, res.Guarantees, pin)
	var prevTbl *table.Table
	if known != nil {
		prevTbl = pin.prevTable
	}
	splitVCPU := homeAndSplit(ws, tbl, prevTbl)

	// Post-processing: coalesce unenforceable slivers, honoring the
	// service guarantees. Coalescing never lengthens a list, so sizing
	// final for what it will be fed keeps every core's window in one
	// backing.
	toCoalesce := 0
	for ci := range tbl.Cores {
		if !adopted[ci] {
			toCoalesce += len(tbl.Cores[ci].Allocs)
		}
	}
	ws.final = slices.Grow(ws.final[:0], toCoalesce)
	for ci := range tbl.Cores {
		if adopted[ci] {
			continue // the previous plan's post-coalesce output
		}
		ct := &tbl.Cores[ci]
		n := len(ws.final)
		ws.final = coalesceCore(ws.final, ct.Allocs, coalesceThreshold, tableLen,
			func(v int) bool { return !splitVCPU[v] })
		ct.Allocs = ws.final[n:len(ws.final):len(ws.final)]
	}

	// Optional peephole pass: guarantee-preserving context-switch
	// reduction (paper Sec. 5, post-processing extensions).
	if opts.Peephole {
		ph := newPeepholer(tableLen, len(tbl.VCPUs), res.Guarantees, splitVCPU)
		for ci := range tbl.Cores {
			var saved int
			tbl.Cores[ci].Allocs, saved = ph.run(tbl.Cores[ci].Allocs)
			res.SwitchesSaved += saved
		}
	}

	if onFinalGate != nil && known != nil {
		onFinalGate(tbl, res.Guarantees, known, gated)
	}
	if err := ws.validate(tbl, known); err != nil {
		return nil, fmt.Errorf("planner: generated table failed validation: %w", err)
	}
	// The dispatcher indexes the table when it installs it; refuse here a
	// table whose index would outgrow the bound.
	if err := tbl.CheckSliceBound(); err != nil {
		return nil, err
	}
	if err := ws.checkGuarantees(tbl, gated); err != nil {
		return nil, fmt.Errorf("planner: generated table failed guarantee check: %w", err)
	}

	// Copy out what the Result owns: one allocation backing carved per
	// core the plan did not adopt (an adopted core is the previous
	// Result's list), and one task backing shared by Tasks (every core's
	// tasks in core order, then the cluster's) and the per-core CoreTasks
	// windows.
	total, nTasks := 0, len(clusterTasks)
	for ci := range tbl.Cores {
		if !adopted[ci] {
			total += len(tbl.Cores[ci].Allocs)
		}
		nTasks += len(cores[ci].tasks)
	}
	var backing []table.Alloc
	if total > 0 {
		backing = make([]table.Alloc, 0, total)
	}
	for ci := range tbl.Cores {
		ct := &tbl.Cores[ci]
		if adopted[ci] {
			continue
		}
		if len(ct.Allocs) == 0 {
			ct.Allocs = nil
			continue
		}
		n := len(backing)
		backing = append(backing, ct.Allocs...)
		ct.Allocs = backing[n:len(backing):len(backing)]
	}
	if nTasks > 0 {
		res.Tasks = make(periodic.TaskSet, 0, nTasks)
	}
	res.CoreTasks = make([]periodic.TaskSet, opts.Cores)
	for _, c := range cores {
		if len(c.tasks) == 0 {
			continue
		}
		n := len(res.Tasks)
		res.Tasks = append(res.Tasks, c.tasks...)
		res.CoreTasks[c.id] = res.Tasks[n:len(res.Tasks):len(res.Tasks)]
	}
	res.Tasks = append(res.Tasks, clusterTasks...)
	res.Table = tbl
	return res, nil
}

// coreHosting returns the id of the core whose task set contains the
// exact subtask p (matched by name and offset).
func coreHosting(cores []*coreState, p periodic.Task) int {
	for _, c := range cores {
		for _, tk := range c.tasks {
			if tk.Name == p.Name && tk.Offset == p.Offset && tk.WCET == p.WCET {
				return c.id
			}
		}
	}
	return -1
}

// tileSlots converts simulator slots (task indices into ts, covering
// [0, srcLen)) into table allocations (vCPU ids, ids[task.Group],
// covering [0, dstLen)) by repeating the cyclic schedule dstLen/srcLen
// times and merging across tile seams. The allocations are appended to
// dst.
func tileSlots(dst []table.Alloc, slots []periodic.Slot, ts periodic.TaskSet, ids []int, srcLen, dstLen int64) []table.Alloc {
	base := len(dst)
	reps := dstLen / srcLen
	dst = slices.Grow(dst, int(reps)*len(slots))
	for r := int64(0); r < reps; r++ {
		off := r * srcLen
		for _, s := range slots {
			a := table.Alloc{Start: s.Start + off, End: s.End + off, VCPU: ids[ts[s.Task].Group]}
			if n := len(dst); n > base && dst[n-1].VCPU == a.VCPU && dst[n-1].End == a.Start {
				dst[n-1].End = a.End
				continue
			}
			dst = append(dst, a)
		}
	}
	return dst
}

// guaranteesFor derives the per-vCPU table guarantees, in spec order and
// named by vCPU id: the summed budget of the vCPU's (sub)tasks in every
// period window — over every core's tasks, then the cluster's — and the
// latency goal as the blackout bound.
func guaranteesFor(ws *workspace, specs []VCPUSpec, ids []int, cores []*coreState, clusterTasks periodic.TaskSet, tableLen int64) []table.Guarantee {
	ws.svc, ws.period = sized(ws.svc, len(specs)), sized(ws.period, len(specs))
	svc, period := ws.svc, ws.period
	note := func(tk periodic.Task) {
		if period[tk.Group] == 0 {
			period[tk.Group] = tk.Period // the first task met names the window
		}
		svc[tk.Group] += tk.WCET
	}
	for _, c := range cores {
		for _, tk := range c.tasks {
			note(tk)
		}
	}
	for _, tk := range clusterTasks {
		note(tk)
	}
	n := 0
	for i := range specs {
		if ws.dedicatedOf[i] >= 0 || period[i] != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	gs := make([]table.Guarantee, 0, n)
	for i, s := range specs {
		switch {
		case ws.dedicatedOf[i] >= 0:
			gs = append(gs, table.Guarantee{VCPU: ids[i], Service: tableLen, WindowLen: tableLen, MaxBlackout: s.LatencyGoal})
		case period[i] != 0:
			gs = append(gs, table.Guarantee{VCPU: ids[i], Service: svc[i], WindowLen: period[i], MaxBlackout: s.LatencyGoal})
		}
	}
	return gs
}

// homeAndSplit marks each vCPU split when it holds reservations on more
// than one core and sets its HomeCore to the core holding its largest
// total reservation (first core wins ties), returning the split marks.
// Coalescing and the peephole pass move only unsplit vCPUs' time, within
// their one core, so this runs before them. prev, when set, is the
// previous table of the gate's delta form: a vCPU it left clean keeps
// prev's answers, its allocations being prev's, and only cores not
// adopted are walked — unless a dirty vCPU may hold time on an adopted
// core (split in prev, or homed on a core now adopted).
func homeAndSplit(ws *workspace, tbl *table.Table, prev *table.Table) []bool {
	n := len(tbl.VCPUs)
	ws.coreOf = filled(ws.coreOf, n, -1)
	ws.split = sized(ws.split, n)
	ws.onCore, ws.best = sized(ws.onCore, n), sized(ws.best, n)
	coreOf, split, onCore, best, dirty := ws.coreOf, ws.split, ws.onCore, ws.best, ws.dirty
	full := prev == nil
	for v := 0; !full && v < n && v < len(prev.VCPUs); v++ {
		if dirty[v] {
			pv := &prev.VCPUs[v]
			full = pv.Split || pv.HomeCore >= 0 && ws.adopted[pv.HomeCore]
		}
	}
	// settle closes v's total on the core it was last seen on.
	settle := func(v int) {
		if onCore[v] > best[v] {
			best[v] = onCore[v]
			tbl.VCPUs[v].HomeCore = int(coreOf[v])
		}
	}
	for ci, ct := range tbl.Cores {
		if !full && ws.adopted[ci] {
			continue
		}
		for _, a := range ct.Allocs {
			v := a.VCPU
			if v == table.Idle {
				continue
			}
			if c := coreOf[v]; c != int32(ct.Core) {
				if c >= 0 {
					split[v] = true
					settle(v)
				}
				coreOf[v], onCore[v] = int32(ct.Core), 0
			}
			onCore[v] += a.Len()
		}
	}
	for v := range tbl.VCPUs {
		if !full && !dirty[v] {
			tbl.VCPUs[v].HomeCore, split[v] = prev.VCPUs[v].HomeCore, prev.VCPUs[v].Split
		} else if coreOf[v] >= 0 {
			settle(v)
		}
		tbl.VCPUs[v].Split = split[v]
	}
	return split
}
