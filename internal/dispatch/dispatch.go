// Package dispatch implements Tableau's runtime half: the minimal,
// core-local, table-driven dispatcher (paper Secs. 4 and 6). The
// dispatcher enacts the latest scheduling table from the planner: an
// O(1) slice-index lookup decides who owns the current interval; if the
// reserved vCPU is blocked, or the interval is idle, a second-level
// epoch-based fair-share scheduler hands the time to a ready core-local
// uncapped vCPU. Wakeups are routed with table information, cross-core
// migrations use an ownership handshake instead of locks, and new tables
// are adopted at cycle boundaries, never mid-cycle.
package dispatch

import (
	"fmt"
	"sort"

	"tableau/internal/table"
	"tableau/internal/trace"
	"tableau/internal/vmm"
)

// Options configures the dispatcher.
type Options struct {
	// Epoch is the second-level scheduler's accounting epoch: each
	// replenishment divides Epoch evenly among the core's ready
	// second-level vCPUs. Default 10 ms.
	Epoch int64
}

func (o Options) withDefaults() Options {
	if o.Epoch == 0 {
		o.Epoch = 10_000_000
	}
	return o
}

// Stats reports dispatcher decision counts, the basis of the paper's
// "over 85% of the vantage VM's dispatches came from the second level"
// observation (Sec. 7.4).
type Stats struct {
	// TableDispatches counts level-1 decisions that placed a vCPU.
	TableDispatches int64
	// SecondLevelDispatches counts level-2 decisions that placed a vCPU.
	SecondLevelDispatches int64
	// IdleDecisions counts invocations that left the core idle.
	IdleDecisions int64
	// TableSwitches counts adopted table generations across all cores.
	TableSwitches int64
	// DeferredIPIs counts cross-core handoffs resolved through the
	// descheduling-IPI protocol.
	DeferredIPIs int64
	// CoreFailures counts fail-stops observed via OnCoreFail.
	CoreFailures int64
	// RemappedVCPUs counts vCPUs moved to a surviving core's second
	// level by degraded-mode remapping.
	RemappedVCPUs int64
	// PerVCPUTable / PerVCPUSecond count dispatches per vCPU id.
	PerVCPUTable  []int64
	PerVCPUSecond []int64
}

// coreState is the dispatcher's per-core (core-local) state. All hot
// structures are flat slices indexed by vCPU id: the dispatcher's
// common case must stay a handful of array accesses (paper Sec. 6).
type coreState struct {
	l2Budget  []int64 // per vCPU id; meaningful when member
	l2Member  []bool  // per vCPU id
	l2List    []int   // member ids, for iteration
	l2Running int     // vCPU id currently dispatched by L2, or -1
	l2Since   int64   // when the L2 dispatch began
}

// Dispatcher implements vmm.Scheduler using scheduling tables.
type Dispatcher struct {
	m    *vmm.Machine
	opts Options

	// board holds every table generation and the fail-stop marks. New
	// gives it no cores; Attach sizes it to the machine.
	board *SwitchBoard

	cores []coreState

	// owner[v] is the core currently running vCPU v (the paper's
	// per-vCPU "scheduled elsewhere" field), -1 otherwise.
	owner []int
	// ipiWanted[v] is the core waiting for v to be descheduled
	// elsewhere, -1 if none.
	ipiWanted []int

	// wakeIdx[v] holds v's reservations sorted by start, so wakeup
	// routing is a binary search instead of a table scan (the paper's
	// "current allocation" field, Sec. 6).
	wakeIdx [][]wakeSpan

	// emergency[v] marks a vCPU whose second-level membership was
	// granted by degraded-mode remapping (its table guarantees are void
	// until a replan). See degraded.go.
	emergency []bool

	// tr is the machine's scheduling tracer, cached at Attach; nil when
	// tracing is off.
	tr *trace.Tracer

	// be[v] marks vCPU v best-effort for second-level ordering: LS
	// members are picked before BE members in slack slots, and an LS
	// wakeup preempts a running BE slack dispatch. The table math is
	// class-blind — guarantees are unaffected — so the registry is a
	// side channel (SetBestEffort), not part of the table wire format.
	// nil means every vCPU is latency-sensitive.
	be []bool

	stats Stats
}

// wakeSpan is one reservation interval in the wakeup index.
type wakeSpan struct {
	start, end int64
	core       int32
}

// New creates a dispatcher enacting the given table. The table's vCPU
// indices must match the machine's vCPU ids (the core facade arranges
// this).
func New(tbl *table.Table, opts Options) *Dispatcher {
	return &Dispatcher{board: NewSwitchBoard(0, tbl), opts: opts.withDefaults()}
}

// Name implements vmm.Scheduler.
func (d *Dispatcher) Name() string { return "tableau" }

// SetBestEffort installs the per-vCPU tenancy classes (true = BE),
// indexed by vCPU id. nil (the default) marks every vCPU LS, which
// reproduces the pre-class second level exactly. Classes only order
// slack distribution; table-guaranteed dispatch ignores them.
func (d *Dispatcher) SetBestEffort(be []bool) {
	if be == nil {
		d.be = nil
		return
	}
	d.be = append(d.be[:0], be...)
}

// isBE reports vCPU id's class under the installed registry.
func (d *Dispatcher) isBE(id int) bool {
	return id < len(d.be) && d.be[id]
}

// Stats returns a copy of the dispatcher's decision statistics.
func (d *Dispatcher) Stats() Stats { return d.stats }

// Attach implements vmm.Scheduler.
func (d *Dispatcher) Attach(m *vmm.Machine) {
	d.m = m
	d.tr = m.Tracer()
	tbl := d.board.Active()
	if len(tbl.VCPUs) != len(m.VCPUs) {
		panic(fmt.Sprintf("dispatch: table has %d vCPUs, machine has %d", len(tbl.VCPUs), len(m.VCPUs)))
	}
	d.board = newSwitchBoard(len(m.CPUs), d.board.active.Load())
	d.cores = make([]coreState, len(m.CPUs))
	d.emergency = make([]bool, len(m.VCPUs))
	d.owner = make([]int, len(m.VCPUs))
	d.ipiWanted = make([]int, len(m.VCPUs))
	for i := range d.owner {
		d.owner[i] = -1
		d.ipiWanted[i] = -1
	}
	d.stats.PerVCPUTable = make([]int64, len(m.VCPUs))
	d.stats.PerVCPUSecond = make([]int64, len(m.VCPUs))
	for c := range d.cores {
		cs := &d.cores[c]
		cs.l2Running = -1
		cs.l2Budget = make([]int64, len(m.VCPUs))
		cs.l2Member = make([]bool, len(m.VCPUs))
	}
	// Seed second-level membership from the table's home cores.
	d.switched()
}

// switched rebuilds second-level membership and the wake index for the
// active table, once every live core has adopted it.
func (d *Dispatcher) switched() {
	tbl := d.board.Active()
	d.rebuildMembership(tbl)
	d.rebuildWakeIndex(tbl)
}

// rebuildWakeIndex recomputes the per-vCPU reservation index for wakeup
// routing.
func (d *Dispatcher) rebuildWakeIndex(tbl *table.Table) {
	if d.wakeIdx == nil {
		d.wakeIdx = make([][]wakeSpan, len(tbl.VCPUs))
	}
	for i := range d.wakeIdx {
		d.wakeIdx[i] = d.wakeIdx[i][:0]
	}
	for _, ct := range tbl.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == table.Idle {
				continue
			}
			d.wakeIdx[a.VCPU] = append(d.wakeIdx[a.VCPU], wakeSpan{start: a.Start, end: a.End, core: int32(ct.Core)})
		}
	}
	for i := range d.wakeIdx {
		spans := d.wakeIdx[i]
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	}
}

func (d *Dispatcher) rebuildMembership(tbl *table.Table) {
	for c := range d.cores {
		cs := &d.cores[c]
		for i := range cs.l2Member {
			cs.l2Member[i] = false
		}
		cs.l2List = cs.l2List[:0]
	}
	// A fresh membership supersedes any degraded-mode remapping; the
	// remap below re-grants emergency status where still needed.
	for i := range d.emergency {
		d.emergency[i] = false
	}
	for id, vi := range tbl.VCPUs {
		if vi.Capped || vi.HomeCore < 0 || vi.HomeCore >= len(d.cores) {
			continue
		}
		home := vi.HomeCore
		if d.board.Failed(home) {
			// The table predates the failure: reroute to a survivor.
			home = d.firstOnline()
			if home < 0 {
				continue
			}
		}
		d.addMember(home, id)
	}
	d.remapStranded(tbl)
}

// addMember and dropMember maintain a core's second-level set.
func (d *Dispatcher) addMember(core, id int) {
	cs := &d.cores[core]
	if cs.l2Member[id] {
		return
	}
	cs.l2Member[id] = true
	cs.l2List = append(cs.l2List, id)
}

func (d *Dispatcher) dropMember(core, id int) {
	cs := &d.cores[core]
	if !cs.l2Member[id] {
		return
	}
	cs.l2Member[id] = false
	for k, v := range cs.l2List {
		if v == id {
			cs.l2List = append(cs.l2List[:k], cs.l2List[k+1:]...)
			break
		}
	}
}

// PushTable stages a new table on the switch board (see SwitchBoard):
// it takes effect at a cycle boundary chosen so no core can race the
// update, and supersedes a table still staged.
func (d *Dispatcher) PushTable(tbl *table.Table) error {
	if len(tbl.VCPUs) != len(d.owner) {
		return fmt.Errorf("dispatch: new table has %d vCPUs, machine has %d", len(tbl.VCPUs), len(d.owner))
	}
	now := d.m.Eng.Now()
	at, done := d.board.Push(tbl, now)
	if d.tr != nil {
		d.tr.Emit(trace.EvPlannerCall, -1, now, -1, int64(tbl.Generation), at)
	}
	if done {
		d.switched()
	}
	return nil
}

// Staged returns the staged table awaiting adoption, or nil.
func (d *Dispatcher) Staged() *table.Table { return d.board.Staged() }

// AbortStaged withdraws a staged table no core has begun adopting and
// returns it, restaging the one it superseded (SwitchBoard.Abort): the
// control plane's rollback paths keep the dispatcher on their epoch.
func (d *Dispatcher) AbortStaged() *table.Table {
	tbl, done := d.board.Abort()
	if done {
		d.switched()
	}
	return tbl
}

// PickNext implements vmm.Scheduler: the Tableau hot path.
func (d *Dispatcher) PickNext(cpu *vmm.PCPU, now int64) vmm.Decision {
	c := cpu.ID
	if d.board.Failed(c) {
		// The machine stops invoking failed cores; this guards wrapped
		// or replayed invocations racing the failure instant.
		d.stats.IdleDecisions++
		return vmm.Decision{Until: vmm.NoTimer}
	}
	cs := &d.cores[c]
	tbl, idx, at, done := d.board.TableFor(c, now)
	if at != 0 {
		// This core crossed into the staged generation — once.
		d.stats.TableSwitches++
		if d.tr != nil {
			d.tr.Emit(trace.EvTableSwitch, c, now, -1, int64(tbl.Generation), at)
		}
		if done {
			d.switched()
		}
	}

	d.settleL2(cpu, now)
	if prev := cpu.Current; prev != nil {
		d.releaseOwnership(prev, c, now)
	}

	// Level 1: table lookup (O(1) via the slice index).
	vid, reserved, until := idx.Lookup(tbl, c, now)
	if reserved {
		v := d.m.VCPUs[vid]
		// Track the trailing core for second-level membership: the core
		// of the vCPU's most recent guaranteed allocation.
		d.updateTrailingCore(vid, c, tbl)
		switch {
		case d.owner[vid] != -1 && d.owner[vid] != c:
			// Scheduled elsewhere: request an IPI on deschedule and
			// fall through to the second level (paper Sec. 6,
			// cross-core migrations).
			d.ipiWanted[vid] = c
		case v.State == vmm.Runnable || (v.State == vmm.Running && v.CurrentCPU == c):
			d.owner[vid] = c
			d.stats.TableDispatches++
			d.stats.PerVCPUTable[vid]++
			return vmm.Decision{VCPU: v, Until: until}
		}
		// Reserved vCPU is blocked or dead: the interval's time goes to
		// the second level.
	}

	// Level 2: core-local fair share over the idle (or forfeited) time.
	if v, budget := d.pickSecondLevel(cpu, now); v != nil {
		cs.l2Running = v.ID
		cs.l2Since = now
		d.owner[v.ID] = c
		d.stats.SecondLevelDispatches++
		d.stats.PerVCPUSecond[v.ID]++
		if d.tr != nil {
			d.tr.Emit(trace.EvL2Pick, c, now, v.ID, budget, 0)
		}
		end := now + budget
		if until < end {
			end = until
		}
		return vmm.Decision{VCPU: v, Until: end}
	}
	d.stats.IdleDecisions++
	return vmm.Decision{Until: until}
}

// settleL2 charges the elapsed second-level time of the vCPU the core
// was running, if it was a second-level dispatch.
func (d *Dispatcher) settleL2(cpu *vmm.PCPU, now int64) {
	cs := &d.cores[cpu.ID]
	if cs.l2Running < 0 {
		return
	}
	used := now - cs.l2Since
	if used > 0 {
		cs.l2Budget[cs.l2Running] -= used
	}
	cs.l2Running = -1
}

// releaseOwnership clears the ownership of a vCPU descheduled from core
// c and delivers a deferred cross-core IPI if another core is waiting.
func (d *Dispatcher) releaseOwnership(v *vmm.VCPU, c int, now int64) {
	if d.owner[v.ID] != c {
		return
	}
	d.owner[v.ID] = -1
	if w := d.ipiWanted[v.ID]; w >= 0 && w != c {
		d.ipiWanted[v.ID] = -1
		d.stats.DeferredIPIs++
		d.m.Kick(w)
	}
}

// updateTrailingCore moves the vCPU's second-level membership to the
// core of its latest guaranteed allocation (the paper's trailing-core
// policy for split vCPUs).
func (d *Dispatcher) updateTrailingCore(vid, c int, tbl *table.Table) {
	if tbl.VCPUs[vid].Capped || !tbl.VCPUs[vid].Split {
		return
	}
	if d.cores[c].l2Member[vid] {
		return
	}
	for i := range d.cores {
		if i == c {
			d.addMember(i, vid)
		} else {
			d.dropMember(i, vid)
		}
	}
}

// pickSecondLevel returns the ready core-local vCPU with the highest
// remaining budget, replenishing budgets when every ready member is
// exhausted (paper Sec. 4). Latency-sensitive members outrank
// best-effort ones: a BE member receives slack only when no LS member
// with budget is ready, so BE guests soak the idle time LS guests
// leave behind without ever delaying them.
func (d *Dispatcher) pickSecondLevel(cpu *vmm.PCPU, now int64) (*vmm.VCPU, int64) {
	cs := &d.cores[cpu.ID]
	pick := func() (*vmm.VCPU, int64) {
		var bestLS, bestBE *vmm.VCPU
		var budgetLS, budgetBE int64
		for _, vid := range cs.l2List {
			v := d.m.VCPUs[vid]
			if !d.readyForL2(v, cpu.ID) {
				continue
			}
			b := cs.l2Budget[vid]
			if b <= 0 {
				continue
			}
			if d.isBE(vid) {
				if bestBE == nil || b > budgetBE || (b == budgetBE && v.ID < bestBE.ID) {
					bestBE, budgetBE = v, b
				}
			} else {
				if bestLS == nil || b > budgetLS || (b == budgetLS && v.ID < bestLS.ID) {
					bestLS, budgetLS = v, b
				}
			}
		}
		if bestLS != nil {
			return bestLS, budgetLS
		}
		return bestBE, budgetBE
	}
	if v, b := pick(); v != nil {
		return v, b
	}
	// All ready members are out of budget: replenish evenly among the
	// ready members and try once more.
	ready := 0
	for _, vid := range cs.l2List {
		if d.readyForL2(d.m.VCPUs[vid], cpu.ID) {
			ready++
		}
	}
	if ready == 0 {
		return nil, 0
	}
	share := d.opts.Epoch / int64(ready)
	if share <= 0 {
		share = 1
	}
	for _, vid := range cs.l2List {
		if d.readyForL2(d.m.VCPUs[vid], cpu.ID) {
			cs.l2Budget[vid] = share
		}
	}
	return pick()
}

// readyForL2 reports whether v can be dispatched by the second level on
// core c right now.
func (d *Dispatcher) readyForL2(v *vmm.VCPU, c int) bool {
	if v.State == vmm.Blocked || v.State == vmm.Dead {
		return false
	}
	if v.State == vmm.Running && v.CurrentCPU != c {
		return false
	}
	if o := d.owner[v.ID]; o != -1 && o != c {
		return false
	}
	return true
}

// OnWake implements vmm.Scheduler: wakeup routing via the table (paper
// Sec. 6, "efficient wake-ups").
func (d *Dispatcher) OnWake(v *vmm.VCPU, now int64) {
	tbl := d.board.Active()
	pos := now % tbl.Len
	// If the vCPU has a current reservation, kick that core: binary
	// search of the per-vCPU reservation index.
	if spans := d.wakeIdx[v.ID]; len(spans) > 0 {
		i := sort.Search(len(spans), func(k int) bool { return spans[k].start > pos }) - 1
		if i >= 0 && pos < spans[i].end {
			if c := int(spans[i].core); !d.board.Failed(c) {
				d.m.Kick(c)
				return
			}
			// The reservation's core is dead: fall through to the
			// second-level path (degraded mode, best effort).
		}
	}
	// Otherwise, if it participates in second-level scheduling and its
	// core is idle, kick it; capped vCPUs' wakeups can be safely
	// ignored — their next reservation will find them runnable — unless
	// degraded-mode remapping made the second level their only path.
	if tbl.VCPUs[v.ID].Capped && !d.emergency[v.ID] {
		return
	}
	for c := range d.cores {
		if d.board.Failed(c) {
			continue
		}
		if d.cores[c].l2Member[v.ID] {
			cur := d.m.CPUs[c].Current
			switch {
			case cur == nil:
				d.m.Kick(c)
			case !d.isBE(v.ID) && d.cores[c].l2Running == cur.ID && d.isBE(cur.ID):
				// A latency-sensitive wakeup preempts a best-effort
				// slack dispatch: the kick forces a re-pick, where the
				// LS member outranks the BE one.
				d.m.Kick(c)
			}
			return
		}
	}
}

// OnBlock implements vmm.Scheduler. A vCPU that blocks before ever
// running (its program blocked at work-fetch time) still holds a
// tentative ownership from PickNext; release it so other cores' table
// intervals for it are not deferred.
func (d *Dispatcher) OnBlock(v *vmm.VCPU, now int64) {
	if v.CurrentCPU == -1 {
		if o := d.owner[v.ID]; o != -1 {
			d.releaseOwnership(v, o, now)
		}
	}
}

// OnDeschedule implements vmm.DescheduleObserver: the moment a vCPU
// leaves a core, ownership clears and any deferred cross-core IPI fires.
func (d *Dispatcher) OnDeschedule(v *vmm.VCPU, cpu *vmm.PCPU, now int64) {
	d.releaseOwnership(v, cpu.ID, now)
}
