package planner

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// This file is the incremental replanning layer: when consecutive plans
// share most of their population — the common case under churn, where a
// burst perturbs 3 of 16 cores — the previous Result tells us exactly
// which per-core assignments are still valid. PlanIncremental diffs the
// new specs against the previous ones, pins every core whose VMs are
// unchanged, and re-runs the full pipeline with only the dirty VMs
// flowing through partitioning. The per-core SliceCache independently
// memoizes the EDF simulations themselves, so even a scratch plan (or a
// pinned core whose multiset reappears) skips re-simulation.
//
// Safety argument: pinning only narrows the placement search — every
// pinned task re-enters the core states through the same accounting
// (utilization, constrained-deadline marking) as a fresh placement, and
// the final table is re-validated, re-coalesced against freshly derived
// guarantees, and re-Checked: in full, or — when the previous plan is
// one this workspace verified — in the delta form, which re-verifies
// everything but what that verification already covers (gate.go). A
// stale or bogus pin can therefore only cause a planning *failure*
// (which falls back to a scratch plan), never an unverified table.

// PrevPlan threads the previous planning outcome into the next plan:
// Specs are the specs Res was planned from, and Res is as the planner
// returned it (vCPUs named by Specs' IDs, core ids logical), read-only.
// A core the next plan adopts shares Res's allocation list, so Res's
// table must never be written — nor, being immutable once pushed, need
// it be copied.
type PrevPlan struct {
	Specs []VCPUSpec
	Opts  Options
	Res   *Result
}

// pinning is the planWith input derived from a PrevPlan diff. It lives
// in the workspace, like everything it points at except prevTable.
type pinning struct {
	// coreTasks[i] holds the tasks frozen onto planner core i, their
	// Group renumbered to the current spec index.
	coreTasks []periodic.TaskSet
	// pinnedSpec marks current spec indices whose placement is frozen.
	pinnedSpec []bool
	// cores counts non-empty coreTasks entries (Result.PinnedCores).
	cores int
	// prevTable is the previous plan's finished table (read-only).
	// Pinned cores adopt their previous final schedule from it, the
	// allocation list itself, so synthesis and coalescing run O(dirty
	// cores).
	prevTable *table.Table
	// prevGs are the guarantees prevTable was checked against, and
	// trusted says this workspace checked it (ws.trusts, finalGate).
	prevGs  []table.Guarantee
	trusted bool
}

// PlanIncremental is Plan with reuse of the previous result: cores
// whose entire VM population is unchanged keep their task assignments
// verbatim and only the dirty remainder is re-placed. When the diff
// yields nothing reusable, the options are incompatible, or the pinned
// plan fails (pinning shrinks the search space, so a population the
// full planner can place may be unplaceable with most cores frozen),
// it falls back to a scratch Plan — the complete search and the
// correctness baseline.
//
// The result is not guaranteed to be byte-identical to a scratch plan
// (placement history differs); it is guaranteed to pass the same
// admission, validation, and guarantee checks, with guarantees derived
// from the same specs — see TestIncrementalEquivalence.
func PlanIncremental(specs []VCPUSpec, opts Options, prev *PrevPlan) (*Result, error) {
	ws := getWorkspace(len(specs))
	defer putWorkspace(ws)
	return planIncremental(ws, specs, opts, prev)
}

func planIncremental(ws *workspace, specs []VCPUSpec, opts Options, prev *PrevPlan) (*Result, error) {
	if pin := pinFromPrev(ws, specs, opts, prev); pin != nil {
		if res, err := planWith(ws, specs, opts, pin); err == nil {
			return res, nil
		}
	}
	return planWith(ws, specs, opts, nil)
}

// pinFromPrev diffs the new planning input against the previous plan
// and returns the pinning, or nil when nothing can be reused.
//
// Dirty-core diff rules:
//   - a VM is clean iff it appears in both populations under the same
//     ID and name with identical (Util, LatencyGoal, Capped); arrivals,
//     departures, and reconfigurations are dirty — and so is every VM
//     of a positionally numbered list whose position moved;
//   - a split VM is clean only if every core hosting one of its pieces
//     is otherwise clean (pinning a subset of a C=D chain would
//     double-place the VM);
//   - a core is pinned iff every task on it belongs to a clean VM;
//   - dedicated (U=1) and cluster-scheduled cores are never pinned:
//     dedicated placement is trivial to recompute, and DP-Fair slots
//     are a joint product of the whole cluster;
//   - every Options field but Slices, which cannot change a table, must
//     match.
func pinFromPrev(ws *workspace, specs []VCPUSpec, opts Options, prev *PrevPlan) *pinning {
	if prev == nil || prev.Res == nil || len(prev.Res.CoreTasks) == 0 {
		return nil
	}
	if prev.Res.Stage == StageClustered {
		return nil
	}
	po, co := prev.Opts, opts
	po.Slices, co.Slices = nil, nil
	if po != co {
		return nil
	}
	if len(prev.Res.CoreTasks) != co.Cores {
		return nil
	}

	// clean[j] is the current index of previous spec j when it is clean.
	// Both lists are in increasing ID order, so one merge pairs them.
	ws.renumber = filled(ws.renumber, len(prev.Specs), -1)
	clean := ws.renumber
	nClean := 0
	prevPos, curPos := positional(prev.Specs), positional(specs)
	i := 0
	for j, p := range prev.Specs {
		id := p.id(j, prevPos)
		for i < len(specs) && specs[i].id(i, curPos) < id {
			i++
		}
		if i == len(specs) {
			break
		}
		if c := specs[i]; c.id(i, curPos) == id && c.Name == p.Name && !p.Util.IsFull() &&
			c.Util == p.Util && c.LatencyGoal == p.LatencyGoal && c.Capped == p.Capped {
			clean[j] = int32(i)
			nClean++
			i++
		}
	}
	if nClean == 0 {
		return nil
	}
	isClean := func(group int) bool { return group >= 0 && group < len(clean) && clean[group] >= 0 }

	// A core is clean iff every task on it belongs to a clean VM.
	ws.coreClean = sized(ws.coreClean, co.Cores)
	coreClean := ws.coreClean
	nTasks := 0
	for cid, ts := range prev.Res.CoreTasks {
		if len(ts) == 0 {
			continue
		}
		nTasks += len(ts)
		coreClean[cid] = true
		for _, tk := range ts {
			if !isClean(tk.Group) {
				coreClean[cid] = false
				break
			}
		}
	}
	// A multi-piece (split) group is pinnable only if all its hosting
	// cores are clean; a core hosting an unpinnable group is not pinned.
	ws.groupDirty = sized(ws.groupDirty, len(prev.Specs))
	groupDirty := ws.groupDirty
	for cid, ts := range prev.Res.CoreTasks {
		if coreClean[cid] {
			continue
		}
		for _, tk := range ts {
			if tk.Group >= 0 && tk.Group < len(groupDirty) {
				groupDirty[tk.Group] = true
			}
		}
	}
	pinnable := func(cid int) bool {
		if !coreClean[cid] {
			return false
		}
		for _, tk := range prev.Res.CoreTasks[cid] {
			if groupDirty[tk.Group] {
				return false
			}
		}
		return true
	}

	ws.coreTasks = sized(ws.coreTasks, co.Cores)
	ws.pinnedSpec = sized(ws.pinnedSpec, len(specs))
	if cap(ws.pinned) < nTasks {
		ws.pinned = make(periodic.TaskSet, 0, nTasks)
	}
	ws.pinned = ws.pinned[:0]
	ws.pin = pinning{
		coreTasks:  ws.coreTasks,
		pinnedSpec: ws.pinnedSpec,
		prevTable:  prev.Res.Table,
		prevGs:     prev.Res.Guarantees,
		trusted:    ws.trusts(prev),
	}
	pin := &ws.pin
	for cid, ts := range prev.Res.CoreTasks {
		if len(ts) == 0 || !pinnable(cid) {
			continue
		}
		n := len(ws.pinned)
		for _, tk := range ts {
			tk.Group = int(clean[tk.Group])
			ws.pinned = append(ws.pinned, tk)
			pin.pinnedSpec[tk.Group] = true
		}
		pin.coreTasks[cid] = ws.pinned[n:len(ws.pinned):len(ws.pinned)]
		pin.cores++
	}
	if pin.cores == 0 {
		return nil
	}
	return pin
}

// seedPinned installs the pinned task sets into the core states before
// partitioning, reconstructing the split bookkeeping for pinned C=D
// chains (in the order the chains are first met, core by core). A
// pinned core that is now dedicated (the U=1 population in front of it
// grew) is a conflict: the caller falls back to scratch.
func seedPinned(ws *workspace, cores []*coreState, pin *pinning, res *Result) error {
	ws.pieces = sized(ws.pieces, len(pin.pinnedSpec))
	ws.splitAt = sized(ws.splitAt, len(pin.pinnedSpec))
	pieces, splitAt := ws.pieces, ws.splitAt
	for cid, ts := range pin.coreTasks {
		if len(ts) > 0 && cores[cid].dedicated {
			return fmt.Errorf("planner: pinned core %d is now dedicated", cid)
		}
		for _, tk := range ts {
			pieces[tk.Group]++
		}
	}
	for cid, ts := range pin.coreTasks {
		for _, tk := range ts {
			cores[cid].add(tk)
			if pieces[tk.Group] < 2 {
				continue
			}
			if splitAt[tk.Group] == 0 {
				res.Stage = StageSemiPartitioned
				res.Splits = append(res.Splits, SplitInfo{VCPU: tk.Group, Pieces: int(pieces[tk.Group])})
				splitAt[tk.Group] = int32(len(res.Splits))
			}
			sp := &res.Splits[splitAt[tk.Group]-1]
			sp.Cores = append(sp.Cores, cid)
		}
	}
	res.Incremental = true
	res.PinnedCores = pin.cores
	return nil
}

// SliceCache memoizes per-core EDF simulations across plans, keyed by
// the core's ordered task parameters. SimulateEDF reads nothing but
// (Offset, WCET, Deadline, Period) and task order, so the key omits
// names and groups: two cores — in the same plan or plans apart — whose
// task parameters coincide share one simulation, and a hit returns the
// byte-identical slots a fresh simulation would produce (vCPU ids are
// applied later, in tileSlots, via the caller's task set).
// Cached results are shared and must be treated as read-only.
//
// Entries are LRU-evicted against a byte budget, like the
// whole-problem Cache.
type SliceCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	order    *list.List // LRU: front = most recent
	hits     int64
	misses   int64
	evicted  int64
}

type sliceEntry struct {
	key  string
	sim  *periodic.EDFResult
	size int64
}

// NewSliceCache returns a slice cache bounded by maxBytes (estimated
// footprint); <= 0 selects a default of 16 MiB.
func NewSliceCache(maxBytes int64) *SliceCache {
	if maxBytes <= 0 {
		maxBytes = 16 << 20
	}
	return &SliceCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// appendSliceKey canonicalizes a core's task set down to the fields the
// EDF simulation reads.
func appendSliceKey(buf []byte, ts periodic.TaskSet) []byte {
	for _, tk := range ts {
		buf = strconv.AppendInt(buf, tk.Offset, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.WCET, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.Deadline, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.Period, 10)
		buf = append(buf, ';')
	}
	return buf
}

// lookup takes the key as bytes so that a hit builds no string.
func (sc *SliceCache) lookup(key []byte) (*periodic.EDFResult, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.entries[string(key)]; ok {
		sc.order.MoveToFront(el)
		sc.hits++
		return el.Value.(*sliceEntry).sim, true
	}
	sc.misses++
	return nil, false
}

func (sc *SliceCache) insert(key string, sim *periodic.EDFResult) {
	size := int64(len(key)) + int64(len(sim.Slots))*24 + 64
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.entries[key]; ok {
		// A concurrent synthesis job beat us; both simulations of one
		// key are identical, keep the first.
		return
	}
	el := sc.order.PushFront(&sliceEntry{key: key, sim: sim, size: size})
	sc.entries[key] = el
	sc.bytes += size
	for sc.bytes > sc.maxBytes && sc.order.Len() > 1 {
		oldest := sc.order.Back()
		ent := oldest.Value.(*sliceEntry)
		sc.order.Remove(oldest)
		delete(sc.entries, ent.key)
		sc.bytes -= ent.size
		sc.evicted++
	}
}

// SliceCacheStats are the cache's cumulative counters and current size.
type SliceCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// Stats returns the counters and current footprint.
func (sc *SliceCache) Stats() SliceCacheStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SliceCacheStats{
		Hits: sc.hits, Misses: sc.misses, Evictions: sc.evicted,
		Entries: sc.order.Len(), Bytes: sc.bytes,
	}
}

// simulateCore runs (or recalls) one core's EDF simulation over its
// hyperperiod, leaving both in the job and reporting whether the slice
// cache served it.
func simulateCore(ws *workspace, j *synthJob, sc *SliceCache) (hit bool, err error) {
	if j.coreH, err = j.tasks.Hyperperiod(); err != nil {
		return false, err
	}
	if sc != nil {
		ws.key = appendSliceKey(ws.key[:0], j.tasks)
		if j.sim, hit = sc.lookup(ws.key); hit {
			return true, nil
		}
	}
	if j.sim, err = periodic.SimulateEDF(j.tasks, j.coreH); err != nil {
		return false, fmt.Errorf("planner: core %d EDF simulation failed: %w", j.core, err)
	}
	if sc != nil {
		sc.insert(string(ws.key), j.sim)
	}
	return false, nil
}
