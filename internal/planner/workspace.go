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

	dedicatedOf []int32 // per spec: its dedicated core, or -1
	svc, period []int64 // per spec: guarantee aggregation
	coreOf      []int32 // per vCPU: markSplit's first-seen core
	split       []bool  // per vCPU: reservations on more than one core
	home        []int64 // vcpu*cores+core: reserved time, for home cores
	donated     []donation

	seen map[string]struct{} // admission's duplicate-name check

	// The incremental diff (pinFromPrev, seedPinned).
	pin        pinning
	cur        map[string]int   // current spec name -> index
	renumber   []int32          // previous spec index -> current, or -1
	pinnedSpec []bool           // per current spec: placement frozen
	coreClean  []bool           // per core: every task belongs to a clean VM
	groupDirty []bool           // per previous spec: some hosting core is dirty
	pinned     periodic.TaskSet // backing of the pinned per-core task sets
	coreTasks  []periodic.TaskSet
	pieces     []int32 // per current spec: pinned pieces (seedPinned)
	splitAt    []int32 // per current spec: its index in Result.Splits, +1
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
// done with.
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

// donation is service a vCPU gave up in one guarantee window when
// coalescing folded one of its slivers into a neighbour.
type donation struct {
	vcpu int
	w    int64 // window start
	lost int64
}

func (ws *workspace) donatedIn(vcpu int, w int64) int64 {
	for _, d := range ws.donated {
		if d.vcpu == vcpu && d.w == w {
			return d.lost
		}
	}
	return 0
}

func (ws *workspace) donate(vcpu int, w, lost int64) {
	for i := range ws.donated {
		if d := &ws.donated[i]; d.vcpu == vcpu && d.w == w {
			d.lost += lost
			return
		}
	}
	ws.donated = append(ws.donated, donation{vcpu, w, lost})
}
