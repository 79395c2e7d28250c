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
	// slice-indexed, and proven to satisfy Guarantees.
	Table *table.Table
	// Guarantees holds the per-vCPU contracts the table was checked
	// against: service per period window and maximum blackout.
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
// that post-process a cached plan — remapping guarantee ids into
// another universe, rewriting split placements — must work on a clone
// so the shared original stays intact for other cache users. The Table
// pointer is shared: tables are immutable by convention (consumers
// build replacements, they never edit one in place).
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
// pinning being fresh: the full guarantee check still gates the result.
//
// Every intermediate lives in ws; the Result's memory is allocated here,
// exactly sized, and shares nothing with ws once planWith returns.
func planWith(ws *workspace, specs []VCPUSpec, opts Options, pin *pinning) (*Result, error) {
	opts = opts.withDefaults()
	if pin != nil && len(pin.override) > 0 {
		// The UnsafeStaleSliceReuse defect: plan against the stale specs
		// so the internally consistent (but wrong) table passes Check.
		specs = append([]VCPUSpec(nil), specs...)
		for i, stale := range pin.override {
			specs[i] = stale
		}
	}
	if err := admit(ws, specs, opts.Cores, false); err != nil {
		return nil, err
	}
	if len(opts.Affinity) > 0 {
		if err := affineUtilBound(specs, opts.Affinity); err != nil {
			return nil, err
		}
		for name, cores := range opts.Affinity {
			for _, c := range cores {
				if c < 0 || c >= opts.Cores {
					return nil, fmt.Errorf("planner: affinity of %q names core %d outside 0..%d", name, c, opts.Cores-1)
				}
			}
		}
	}
	// allow maps spec index (task Group) to allowed cores.
	var allow map[int][]int
	if len(opts.Affinity) > 0 {
		allow = make(map[int][]int)
		for i, s := range specs {
			if cores, ok := opts.Affinity[s.Name]; ok && len(cores) > 0 {
				allow[i] = cores
			}
		}
	}
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
	unplaced := partitionWFD(ws, cores, tasks, opts.SplitRotation, allow)

	// Stage 2: C=D semi-partitioning.
	if len(unplaced) > 0 && !opts.DisableSplitting {
		// Split larger tasks first: they are the hardest to place.
		unplaced.SortByUtilDesc()
		still := unplaced[:0]
		for _, tk := range unplaced {
			// Sec. 7.5: compensate a split vCPU for its migration
			// overhead with a few extra percentage points of
			// utilization, if the compensated split still fits.
			pieces, ok := periodic.TaskSet(nil), false
			if opts.SplitCompensationPPM > 0 {
				comp := tk
				extra := tk.Period * opts.SplitCompensationPPM / 1_000_000
				if tk.WCET+extra <= tk.Period {
					comp.WCET += extra
					pieces, ok = splitCDAffine(cores, comp, opts.CoalesceThreshold, allow)
				}
			}
			if !ok {
				pieces, ok = splitCDAffine(cores, tk, opts.CoalesceThreshold, allow)
			}
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
		for _, tk := range unplaced {
			if _, affine := allow[tk.Group]; affine {
				return nil, fmt.Errorf("planner: affine vCPU %q cannot be placed on its allowed cores", tk.Name)
			}
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
	// end they are windows into the workspace.
	tbl := &table.Table{Len: tableLen, Generation: 1}
	tbl.Cores = make([]table.CoreTable, opts.Cores)
	for i := range tbl.Cores {
		tbl.Cores[i].Core = i
	}
	if len(specs) > 0 {
		tbl.VCPUs = make([]table.VCPUInfo, len(specs))
	}
	for i := range specs {
		tbl.VCPUs[i] = table.VCPUInfo{
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
		ws.tiled = append(ws.tiled, table.Alloc{Start: 0, End: tableLen, VCPU: v})
		tbl.Cores[c].Allocs = ws.tiled[n : n+1 : n+1]
		tbl.VCPUs[v].HomeCore = int(c)
	}
	// Schedule adoption: a pinned core whose task set survived placement
	// untouched (no new VM was packed onto it) reuses the previous
	// plan's final post-coalesce schedule, renumbered into the current
	// spec universe. Synthesis then skips tiling and the coalesce pass
	// skips the core entirely, making post-processing O(dirty cores).
	// Disabled under the peephole pass, whose SwitchesSaved accounting
	// would otherwise drift. Safety never rests on this: the final
	// Validate + Check below gate adopted output like any other.
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
	if err := synthesizeCores(ws, tbl, res, pin, tableLen, opts); err != nil {
		return nil, err
	}
	if len(clusterSlots) > 0 {
		clusterH, err := clusterTasks.Hyperperiod()
		if err != nil {
			return nil, err
		}
		for i, c := range clusterCores {
			n := len(ws.tiled)
			ws.tiled = tileSlots(ws.tiled, clusterSlots[i], clusterTasks, clusterH, tableLen)
			tbl.Cores[c.id].Allocs = ws.tiled[n:len(ws.tiled):len(ws.tiled)]
			res.ContextSwitches += len(clusterSlots[i]) * int(tableLen/clusterH)
		}
	}

	res.Guarantees = guaranteesFor(ws, specs, cores, clusterTasks, tableLen)

	// Post-processing: coalesce unenforceable slivers, honoring the
	// service guarantees. Coalescing never lengthens a list, so sizing
	// final for what it will be fed keeps every core's window in one
	// backing.
	splitVCPU := markSplit(ws, tbl)
	ws.donated = ws.donated[:0]
	toCoalesce := 0
	for ci := range tbl.Cores {
		if !adopted[ci] {
			toCoalesce += len(tbl.Cores[ci].Allocs)
		}
	}
	ws.final = slices.Grow(ws.final[:0], toCoalesce)
	for ci := range tbl.Cores {
		if adopted[ci] {
			// The adopted schedule is the previous plan's post-coalesce
			// output; its embedded donations are visible to later
			// affordability checks through the table, and pinned vCPUs
			// never share donation budgets with dirty cores (a split
			// chain pins all of its hosts or none).
			continue
		}
		ct := &tbl.Cores[ci]
		n := len(ws.final)
		ws.final = coalesceCore(ws.final, ct.Allocs, opts.CoalesceThreshold, tableLen,
			func(v int) bool { return !splitVCPU[v] },
			func(v int, start, end int64) bool {
				if !donationAffordable(ws, tbl, res.Guarantees, v, start, end) {
					return false
				}
				// Record the (possibly multi-window) loss so later
				// affordability checks see it.
				g := guaranteeOf(res.Guarantees, v)
				for w := (start / g.WindowLen) * g.WindowLen; w < end; w += g.WindowLen {
					ws.donate(v, w, min64(end, w+g.WindowLen)-max64(start, w))
				}
				return true
			})
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

	// Home cores: the core where the vCPU has the most reserved time
	// (the "trailing core" policy uses last-allocation cores at runtime;
	// the static home seeds second-level membership).
	assignHomeCores(ws, tbl)
	for v := range tbl.VCPUs {
		tbl.VCPUs[v].Split = splitVCPU[v]
	}

	if err := tbl.Validate(); err != nil {
		return nil, fmt.Errorf("planner: generated table failed validation: %w", err)
	}
	// Slice-index reuse: a core whose final allocation list is
	// bit-identical to the previous plan's (pinned cores after identical
	// coalescing, the common case under churn) adopts that plan's index
	// instead of rebuilding it — the index is a pure function of (table
	// length, slice length, allocation intervals). Content equality is
	// checked here, so a stale prevTable can only miss, never corrupt.
	if pin != nil && pin.prevTable != nil && pin.prevTable.Len == tbl.Len &&
		len(pin.prevTable.Cores) == len(tbl.Cores) {
		for ci := range tbl.Cores {
			if tbl.Cores[ci].SliceLen != 0 {
				continue // adopted at synthesis merge, index already present
			}
			if slices.Equal(tbl.Cores[ci].Allocs, pin.prevTable.Cores[ci].Allocs) {
				tbl.Cores[ci].TransplantSlices(&pin.prevTable.Cores[ci])
			}
		}
	}
	// The slice indices are the Result's from the start, and one
	// allocation per core: TransplantSlices shares them across epochs,
	// so a packed backing would pin every core's index of a whole old
	// table for as long as one core's is still in use.
	if err := tbl.BuildMissingSlices(opts.MaxSlicesPerCore); err != nil {
		return nil, err
	}
	if err := tbl.Check(res.Guarantees); err != nil {
		return nil, fmt.Errorf("planner: generated table failed guarantee check: %w", err)
	}

	// Copy out what the Result owns: one allocation backing carved per
	// core, and one task backing shared by Tasks (every core's tasks in
	// core order, then the cluster's) and the per-core CoreTasks windows.
	total, nTasks := 0, len(clusterTasks)
	for ci := range tbl.Cores {
		total += len(tbl.Cores[ci].Allocs)
		nTasks += len(cores[ci].tasks)
	}
	var backing []table.Alloc
	if total > 0 {
		backing = make([]table.Alloc, 0, total)
	}
	for ci := range tbl.Cores {
		ct := &tbl.Cores[ci]
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
// [0, srcLen)) into table allocations (vCPU indices, covering
// [0, dstLen)) by repeating the cyclic schedule dstLen/srcLen times and
// merging across tile seams. The allocations are appended to dst.
func tileSlots(dst []table.Alloc, slots []periodic.Slot, ts periodic.TaskSet, srcLen, dstLen int64) []table.Alloc {
	base := len(dst)
	reps := dstLen / srcLen
	dst = slices.Grow(dst, int(reps)*len(slots))
	for r := int64(0); r < reps; r++ {
		off := r * srcLen
		for _, s := range slots {
			a := table.Alloc{Start: s.Start + off, End: s.End + off, VCPU: ts[s.Task].Group}
			if n := len(dst); n > base && dst[n-1].VCPU == a.VCPU && dst[n-1].End == a.Start {
				dst[n-1].End = a.End
				continue
			}
			dst = append(dst, a)
		}
	}
	return dst
}

// guaranteesFor derives the per-vCPU table guarantees, in spec order:
// the summed budget of the vCPU's (sub)tasks in every period window —
// over every core's tasks, then the cluster's — and the latency goal as
// the blackout bound.
func guaranteesFor(ws *workspace, specs []VCPUSpec, cores []*coreState, clusterTasks periodic.TaskSet, tableLen int64) []table.Guarantee {
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
			gs = append(gs, table.Guarantee{VCPU: i, Service: tableLen, WindowLen: tableLen, MaxBlackout: s.LatencyGoal})
		case period[i] != 0:
			gs = append(gs, table.Guarantee{VCPU: i, Service: svc[i], WindowLen: period[i], MaxBlackout: s.LatencyGoal})
		}
	}
	return gs
}

// markSplit returns, per vCPU index, whether it holds reservations on
// more than one core.
func markSplit(ws *workspace, tbl *table.Table) []bool {
	ws.coreOf = filled(ws.coreOf, len(tbl.VCPUs), -1)
	ws.split = sized(ws.split, len(tbl.VCPUs))
	coreOf, split := ws.coreOf, ws.split
	for _, ct := range tbl.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == table.Idle {
				continue
			}
			switch coreOf[a.VCPU] {
			case -1:
				coreOf[a.VCPU] = int32(ct.Core)
			case int32(ct.Core):
			default:
				split[a.VCPU] = true
			}
		}
	}
	return split
}

// guaranteeOf returns the guarantee entry for the vCPU, or nil.
func guaranteeOf(gs []table.Guarantee, vcpu int) *table.Guarantee {
	for i := range gs {
		if gs[i].VCPU == vcpu {
			return &gs[i]
		}
	}
	return nil
}

// donationAffordable reports whether removing [start,end) from the
// vCPU's reservations still leaves at least the guaranteed service in
// the affected period window(s), accounting for losses already granted
// to earlier donations (ws.donated, by vcpu and window start).
func donationAffordable(ws *workspace, tbl *table.Table, gs []table.Guarantee, vcpu int, start, end int64) bool {
	g := guaranteeOf(gs, vcpu)
	if g == nil || g.WindowLen <= 0 {
		return false
	}
	for w := (start / g.WindowLen) * g.WindowLen; w < end; w += g.WindowLen {
		var svc int64
		for _, ct := range tbl.Cores {
			for _, a := range ct.Allocs {
				if a.VCPU != vcpu {
					continue
				}
				if lo, hi := max64(a.Start, w), min64(a.End, w+g.WindowLen); hi > lo {
					svc += hi - lo
				}
			}
		}
		svc -= ws.donatedIn(vcpu, w)
		loss := min64(end, w+g.WindowLen) - max64(start, w)
		if svc-loss < g.Service {
			return false
		}
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// assignHomeCores sets each vCPU's HomeCore to the core holding its
// largest total reservation (first core wins ties); vCPUs with no
// reservation keep HomeCore -1 unless already set (dedicated).
func assignHomeCores(ws *workspace, tbl *table.Table) {
	nc := len(tbl.Cores)
	ws.home = sized(ws.home, len(tbl.VCPUs)*nc)
	service := ws.home
	for _, ct := range tbl.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU != table.Idle {
				service[a.VCPU*nc+ct.Core] += a.Len()
			}
		}
	}
	for v := range tbl.VCPUs {
		bestCore, bestSvc := -1, int64(0)
		for c, s := range service[v*nc : (v+1)*nc] {
			if s > bestSvc {
				bestCore, bestSvc = c, s
			}
		}
		if bestCore >= 0 {
			tbl.VCPUs[v].HomeCore = bestCore
		}
	}
}
