package planner

import (
	"sync"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// workspace is the scratch arena of one plan. Every intermediate the
// pipeline builds — core states and their task lists, the partitioning
// order, tiled and coalesced allocation lists, the slice-memo key, the
// per-spec and per-(vCPU, core) tables — lives here and is reused by the
// next plan, so that a plan allocates only what its Result owns.
//
// Ownership rule: nothing reachable from a returned Result (or from the
// SliceCache) may point into a workspace. planWith copies out, once and
// exactly sized, what the Result keeps; until that copy, tbl.Cores[i]
// .Allocs and the core states' task lists are windows into the buffers
// below. TestPlanResultOwnsItsMemory scribbles over every workspace on
// its way back to the pool to hold the line.
type workspace struct {
	pooled bool // drawn from the pool, and due back there

	// Core states: cores[i] points at coreSlab[i]; each state keeps its
	// task list's capacity from plan to plan.
	coreSlab []coreState
	cores    []*coreState

	tasks   periodic.TaskSet // freshly placed (unpinned) tasks, spec order
	order   periodic.TaskSet // partitioning order; the unplaced are filtered to its front
	jobs    []synthJob
	adopted []bool // per core: schedule adopted from the previous plan

	// Allocation lists ping-pong: synthesis tiles (or adopts) every core
	// into tiled, coalescing rewrites each core into final.
	tiled []table.Alloc
	final []table.Alloc

	key []byte // the whole-plan cache key, then each simulated core's slice-memo key

	ids         []int   // per spec: its vCPU id (ws.number)
	dedicatedOf []int32 // per spec: its dedicated core, or -1
	svc, period []int64 // per spec: guarantee aggregation
	coreOf      []int32 // per vCPU: the core homeAndSplit last saw it on
	split       []bool  // per vCPU: reservations on more than one core
	onCore      []int64 // per vCPU: its reserved time on coreOf
	best        []int64 // per vCPU: its largest per-core reserved time so far

	seen map[string]struct{} // admission's duplicate-name check

	// The incremental diff (pinFromPrev, seedPinned).
	pin        pinning
	renumber   []int32          // previous spec index -> current, or -1
	pinnedSpec []bool           // per current spec: placement frozen
	coreClean  []bool           // per core: every task belongs to a clean VM
	groupDirty []bool           // per previous spec: some hosting core is dirty
	pinned     periodic.TaskSet // backing of the pinned per-core task sets
	coreTasks  []periodic.TaskSet
	pieces     []int32 // per current spec: pinned pieces (seedPinned)
	splitAt    []int32 // per current spec: its index in Result.Splits, +1

	// The final gate (gate.go). check is nil outside an Arena: a pooled
	// or one-off workspace checks through table's own scratch.
	check *table.Checker
	gAt   []int32           // per previous vCPU id: its previous guarantee's index, or -1
	dirty []bool            // per vCPU id: re-checked in full
	gated []table.Guarantee // the guarantees the delta form checks

	// verified is the last Result an Arena planned in this workspace, and
	// verifiedSpecs the specs it was planned from: the one previous plan
	// whose table the gate may trust.
	verified      *Result
	verifiedSpecs []VCPUSpec
}

// A pool, not a per-host arena: a small host's workspace is a few KB, a
// fleet has thousands of hosts but only GOMAXPROCS plans in flight, and
// the collector may drop idle ones.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// maxPooledSpecs is the largest plan that draws its workspace from the
// pool. The pool is for small hosts, where building the scratch was most
// of what a plan cost. A big plan makes its own — a few dozen buffers
// against milliseconds of work — because a pooled arena stays reachable
// for a collector cycle after its last use: hundreds of KB for a dense
// host, present or not in the live heap depending on when the collector
// last ran.
const maxPooledSpecs = 32

// onPutWorkspace, when set (tests only), sees every workspace a plan is
// done with, an Arena's included.
var onPutWorkspace func(*workspace)

// getWorkspace returns the workspace for a plan over the given number
// of specs; putWorkspace takes it back.
func getWorkspace(specs int) *workspace {
	if specs > maxPooledSpecs {
		return new(workspace)
	}
	ws := workspaces.Get().(*workspace)
	ws.pooled = true
	return ws
}

func putWorkspace(ws *workspace) {
	if onPutWorkspace != nil {
		onPutWorkspace(ws)
	}
	if ws.pooled {
		workspaces.Put(ws)
	}
}

// Arena is a planning workspace its owner keeps: a dense host plans in
// one for as long as the host lives, where each plan of more
// than maxPooledSpecs specs would otherwise build its scratch afresh.
// Being the owner's, its memory is in the live heap exactly while the
// owner is, whenever the collector last ran. The zero value is ready to
// use; an Arena is not safe for concurrent use.
//
// An Arena remembers the last Result it planned. A PlanIncremental whose
// previous plan is that Result, with the very specs slice it was planned
// from, may skip re-verifying the cores it adopts from it (finalGate).
type Arena struct {
	ws workspace
}

func (a *Arena) workspace() *workspace {
	if a.ws.check == nil {
		a.ws.check = new(table.Checker)
	}
	return &a.ws
}

// PlanIncremental is the package-level PlanIncremental, planned in the
// arena.
func (a *Arena) PlanIncremental(specs []VCPUSpec, opts Options, prev *PrevPlan) (*Result, error) {
	ws := a.workspace()
	defer putWorkspace(ws)
	res, err := planIncremental(ws, specs, opts, prev)
	if err == nil {
		ws.verified, ws.verifiedSpecs = res, specs
	}
	// Hold nothing of the plans themselves: the previous plan's table and
	// the slice memo's simulations belong to their owners.
	ws.pin = pinning{}
	clear(ws.jobs[:cap(ws.jobs)])
	return res, err
}

// sized returns buf resliced to n zeroed elements, reallocating only
// when its capacity is short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// filled is sized with every element set to v.
func filled[T any](buf []T, n int, v T) []T {
	buf = sized(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// trusts reports whether prev is the plan this workspace's Arena
// verified last, named with the very specs it was planned from.
func (ws *workspace) trusts(prev *PrevPlan) bool {
	vs := ws.verifiedSpecs
	return ws.verified != nil && prev.Res == ws.verified && len(prev.Specs) == len(vs) &&
		(len(vs) == 0 || &prev.Specs[0] == &vs[0])
}

// number fills ws.ids with each spec's vCPU id.
func (ws *workspace) number(specs []VCPUSpec) []int {
	pos := positional(specs)
	ws.ids = sized(ws.ids, len(specs))
	for i, s := range specs {
		ws.ids[i] = s.id(i, pos)
	}
	return ws.ids
}

// coreStates returns n reset core states.
func (ws *workspace) coreStates(n int) []*coreState {
	if cap(ws.coreSlab) < n {
		ws.coreSlab = make([]coreState, n)
		ws.cores = make([]*coreState, n)
		for i := range ws.coreSlab {
			ws.cores[i] = &ws.coreSlab[i]
		}
	}
	cores := ws.cores[:n]
	for i, c := range cores {
		*c = coreState{id: i, tasks: c.tasks[:0], util: zeroFrac()}
	}
	return cores
}
