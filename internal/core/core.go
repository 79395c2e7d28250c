// Package core is the public face of the Tableau reproduction: it ties
// the planner (table generation, paper Sec. 5) and the dispatcher
// (table-driven scheduling, Secs. 4 and 6) into the system of Fig. 1 —
// a host whose VM population changes over time, with a planning step on
// every creation, teardown, or reconfiguration that regenerates the
// scheduling table and pushes it to the dispatcher for a boundary-
// synchronized switch.
//
// Two layers share this package. System is the population model plus
// the planning pipeline; it is safe for concurrent callers (see the
// locking discipline on System). Controller (controller.go) sits on
// top and turns bursts of population changes into transactional,
// versioned table transitions with rollback.
package core

import (
	"fmt"
	"slices"
	"sync"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// Util re-exports the planner's exact utilization type.
type Util = planner.Util

// Class re-exports the planner's tenancy class (LS or BE). The zero
// value is LS, so class-free configurations behave exactly as before
// the class existed.
type Class = planner.Class

// LS and BE re-export the tenancy classes for callers that only import
// core.
const (
	LS = planner.LS
	BE = planner.BE
)

// TableSink is where the control plane installs regenerated tables: the
// paper's hypercall that hands a table to the hypervisor for a
// boundary-synchronized switch. *dispatch.Dispatcher satisfies it; unit
// tests substitute recording stubs.
type TableSink interface {
	PushTable(tbl *table.Table) error
}

// PlanFunc is a planning backend: given the active population's specs
// and options it returns a planner result as the planner would: vCPUs
// named by the specs' IDs (the slot ids), core ids the logical survivor
// order. It is the hook through which planning can be served remotely
// (plannersvc) — nil means the local planner (System.plan's ladder).
type PlanFunc func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error)

// VMConfig describes one single-vCPU VM slot in the system. (The paper
// evaluates single-vCPU VMs; multi-vCPU VMs are a set of slots sharing
// a name prefix.)
type VMConfig struct {
	// Name identifies the VM.
	Name string
	// Util is the reserved utilization in (0, 1].
	Util Util
	// LatencyGoal is the maximum scheduling latency L in ns.
	LatencyGoal int64
	// Capped VMs may not exceed their reservation.
	Capped bool
	// Class is the tenancy class: LS (the zero value) holds a hard
	// guarantee, BE soaks slack and is shed first under overload.
	Class Class
}

type slot struct {
	cfg    VMConfig
	active bool
	shared bool // an earlier slot holds the same name (names never change)
}

// System models the host's VM population and produces scheduling
// tables for it. Slot indices are stable: they are the vCPU ids the
// planner plans in (VCPUSpec.ID) and the generated tables carry, so a
// dispatcher attached to a machine with one vCPU per slot can adopt
// every regenerated table, and a core whose VMs did not change keeps its
// schedule from one plan to the next.
//
// Locking discipline: mu guards slots, failed, and generation. Every
// exported method takes mu itself; unexported helpers with the Locked
// suffix assume it is held. Plan holds mu for the whole planning step,
// so concurrent control-plane calls serialize into one planner
// invocation at a time — the serialized replan pipeline Controller
// builds on. Cache has its own lock and is configuration set before
// first use, so it needs no mu.
type System struct {
	mu sync.Mutex

	cores        int
	plannerOpts  planner.Options
	dispatchOpts dispatch.Options
	slots        []slot
	generation   uint64

	// failed marks fail-stopped physical cores: Plan places the
	// population on the survivors only, leaving the dead cores' table
	// entries empty (see MarkCoreFailed / EmergencyReplan).
	failed []bool

	// Cache, when set, memoizes planning by exact (specs, options)
	// input — the paper's Sec. 7.1 central table cache for commonly
	// reused configurations. Cached results are shared (possibly across
	// systems and goroutines), so Plan never writes to one: it returns a
	// copy carrying its own guarantees and table. Set it before the
	// first Plan. The cache's attached
	// SliceCache is wired into every local plan, so per-core EDF
	// simulations are memoized even when the whole problem misses — and
	// on an Incremental system that memo is all of the cache that is
	// used (see plan).
	Cache *planner.Cache

	// Incremental, when set, threads each successful plan's result into
	// the next local plan (planner.PlanIncremental): cores whose VMs a
	// churn batch left untouched keep their assignments and only the
	// dirty remainder is re-placed. Tables may differ from scratch plans
	// but pass the identical guarantee checks. Set before first use.
	Incremental bool

	// inc is an Incremental system's planning state (guarded by mu),
	// made on first use.
	inc *incremental

	// Buffers reused from one planning step to the next, valid until the
	// helper that fills them runs again (all under mu): the active specs,
	// the online core ids, and the population snapshot a flush may roll
	// back to. Whatever outlives the step — PrevPlan's specs, what a
	// PlanFunc backend is handed — gets a private copy.
	specs  []planner.VCPUSpec
	online []int
	snap   []slot
}

// NewSystem creates a system with the given number of guest cores.
func NewSystem(cores int, popts planner.Options, dopts dispatch.Options) *System {
	popts.Cores = cores
	return &System{cores: cores, plannerOpts: popts, dispatchOpts: dopts, failed: make([]bool, cores)}
}

// Cores returns the number of guest cores.
func (s *System) Cores() int { return s.cores }

// MarkCoreFailed records the fail-stop of a physical core. Subsequent
// Plans place the population on the surviving cores only; the dead
// core's table entry stays empty so tables keep one CoreTable per
// physical core and vCPU HomeCores keep referring to physical ids.
func (s *System) MarkCoreFailed(core int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.markCoreFailedLocked(core)
}

func (s *System) markCoreFailedLocked(core int) error {
	if core < 0 || core >= s.cores {
		return fmt.Errorf("core: no core %d", core)
	}
	s.failed[core] = true
	return nil
}

// FailedCores returns the fail-stopped cores in id order.
func (s *System) FailedCores() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for c, f := range s.failed {
		if f {
			out = append(out, c)
		}
	}
	return out
}

// onlineCoresLocked returns the live physical core ids in order (in
// s.online: valid until the next call).
func (s *System) onlineCoresLocked() []int {
	s.online = s.online[:0]
	for c := 0; c < s.cores; c++ {
		if !s.failed[c] {
			s.online = append(s.online, c)
		}
	}
	return s.online
}

// AddVM registers a VM slot (initially active) and returns its id.
// Slots must all be registered before the first Plan when the system
// backs a running machine, because vCPU ids are fixed at machine start;
// use SetActive to model creation and teardown afterwards.
func (s *System) AddVM(cfg VMConfig) (int, error) {
	if len(cfg.Name) > table.MaxNameLen {
		return 0, &NameTooLongError{Len: len(cfg.Name)}
	}
	spec := planner.VCPUSpec{Name: cfg.Name, Util: cfg.Util, LatencyGoal: cfg.LatencyGoal, Capped: cfg.Capped, Class: cfg.Class}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	shared := slices.ContainsFunc(s.slots, func(o slot) bool { return o.cfg.Name == cfg.Name })
	s.slots = append(s.slots, slot{cfg: cfg, active: true, shared: shared})
	return len(s.slots) - 1, nil
}

// NameTooLongError is AddVM's and AddMultiVM's refusal of a vCPU name
// longer than the table wire format carries (table.MaxNameLen bytes).
// It is raised where the VM is added, so that a table holding the name
// can never be planned, committed and then fail to encode for a journal.
type NameTooLongError struct {
	Len int // the name's length in bytes
}

func (e *NameTooLongError) Error() string {
	return fmt.Sprintf("core: vCPU name of %d bytes is longer than the %d the table format carries", e.Len, table.MaxNameLen)
}

// AddMultiVM registers n vCPU slots for an n-vCPU VM (named
// "<name>.0" … "<name>.<n-1>"), each with the same per-vCPU utilization
// and latency goal, and returns the slot ids. The paper's model treats
// an SMP VM as a set of independently schedulable vCPUs (Sec. 2); the
// planner places them like any other vCPUs.
func (s *System) AddMultiVM(name string, n int, u Util, latencyGoal int64, capped bool) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: VM %q needs at least one vCPU", name)
	}
	// The last vCPU's name is the longest: refuse before adding any.
	if l := len(name) + len(fmt.Sprint(".", n-1)); l > table.MaxNameLen {
		return nil, &NameTooLongError{Len: l}
	}
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.AddVM(VMConfig{
			Name:        fmt.Sprintf("%s.%d", name, i),
			Util:        u,
			LatencyGoal: latencyGoal,
			Capped:      capped,
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// SetActive marks a slot as active (VM created) or inactive (torn
// down). Inactive slots receive no reservations and do not take part in
// second-level scheduling.
func (s *System) SetActive(id int, active bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setActiveLocked(id, active)
}

func (s *System) setActiveLocked(id int, active bool) error {
	if id < 0 || id >= len(s.slots) {
		return fmt.Errorf("core: no VM slot %d", id)
	}
	s.slots[id].active = active
	return nil
}

// RemoveVM tears a VM down. The slot itself is retained (vCPU ids are
// fixed at machine start) but receives no reservations until a later
// SetActive re-creates it — the arrival/departure model the churn
// experiments drive.
func (s *System) RemoveVM(id int) error { return s.SetActive(id, false) }

// Active reports whether slot id currently holds a live VM.
func (s *System) Active(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return id >= 0 && id < len(s.slots) && s.slots[id].active
}

// Reconfigure updates a slot's utilization and latency goal (the
// paper's VM reconfiguration operation).
func (s *System) Reconfigure(id int, u Util, latencyGoal int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconfigureLocked(id, u, latencyGoal)
}

func (s *System) reconfigureLocked(id int, u Util, latencyGoal int64) error {
	if id < 0 || id >= len(s.slots) {
		return fmt.Errorf("core: no VM slot %d", id)
	}
	cfg := s.slots[id].cfg
	cfg.Util = u
	cfg.LatencyGoal = latencyGoal
	spec := planner.VCPUSpec{Name: cfg.Name, Util: cfg.Util, LatencyGoal: cfg.LatencyGoal, Capped: cfg.Capped, Class: cfg.Class}
	if err := spec.Validate(); err != nil {
		return err
	}
	s.slots[id].cfg = cfg
	return nil
}

// SetClass changes a slot's tenancy class. Fleet hosts recycle slots
// across placements, so the class is settable like the reservation.
func (s *System) SetClass(id int, c Class) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setClassLocked(id, c)
}

func (s *System) setClassLocked(id int, c Class) error {
	if id < 0 || id >= len(s.slots) {
		return fmt.Errorf("core: no VM slot %d", id)
	}
	s.slots[id].cfg.Class = c
	return nil
}

// NumSlots returns the number of registered VM slots.
func (s *System) NumSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Config returns the configuration of slot id.
func (s *System) Config(id int) VMConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots[id].cfg
}

// snapshotLocked captures the population state a transactional caller
// may need to restore: per-slot configuration and activation. Core
// failures are facts, not transaction state, so they are not captured.
// The capture lives in s.snap: valid until the next call.
func (s *System) snapshotLocked() []slot {
	s.snap = append(s.snap[:0], s.slots...)
	return s.snap
}

// restoreLocked rolls the population back to a snapshotLocked capture.
// Slots added after the snapshot stay registered (ids are stable) but
// are deactivated: they were never part of a committed epoch.
func (s *System) restoreLocked(snap []slot) {
	copy(s.slots, snap)
	for i := len(snap); i < len(s.slots); i++ {
		s.slots[i].active = false
	}
}

// activeSpecsLocked materializes the active population as planner specs,
// each numbered by its slot (in s.specs: valid until the next call).
func (s *System) activeSpecsLocked() []planner.VCPUSpec {
	s.specs = s.specs[:0]
	for id, sl := range s.slots {
		if !sl.active {
			continue
		}
		s.specs = append(s.specs, planner.VCPUSpec{
			ID:          id,
			Name:        sl.cfg.Name,
			Util:        sl.cfg.Util,
			LatencyGoal: sl.cfg.LatencyGoal,
			Capped:      sl.cfg.Capped,
			Class:       sl.cfg.Class,
		})
	}
	return s.specs
}

// Plan generates a scheduling table covering every slot (with
// reservations only for active ones) and the planner's report. Each
// call increments the table generation.
func (s *System) Plan() (*table.Table, *planner.Result, error) {
	return s.PlanUsing(nil)
}

// PlanUsing is Plan with an explicit planning backend: fn receives the
// active specs and the topology-adjusted options and must return a
// result as the planner would, which PlanUsing then places on the
// physical cores exactly like Plan. A nil fn selects the local planner
// (System.plan's ladder). This is how remote planning
// (plannersvc.Client.PlanFunc) and the churn experiments'
// outage-simulating backends slot into the same pipeline.
func (s *System) PlanUsing(fn PlanFunc) (*table.Table, *planner.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planLocked(fn)
}

func (s *System) planLocked(fn PlanFunc) (*table.Table, *planner.Result, error) {
	specs := s.activeSpecsLocked()
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: no active VMs to plan for")
	}
	opts, err := s.planOptsLocked()
	if err != nil {
		return nil, nil, err
	}
	if fn != nil || s.Incremental {
		// A backend may keep what it is handed, and PrevPlan does.
		specs = slices.Clone(specs)
	}
	var res *planner.Result
	var hit bool
	if fn != nil {
		res, err = fn(specs, opts)
	} else {
		res, hit, err = s.plan(specs, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	tbl, err := s.remapLocked(res.Table, fn == nil)
	if err != nil {
		return nil, nil, err
	}
	if s.Incremental {
		// Any successful plan, local or remote, is the population the
		// next batch perturbs and seeds the next plan's dirty-core diff.
		s.incLocked().prev = &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
	}
	// res itself is read-only from here on — the cache may be sharing it
	// with other systems and the next plan diffs against it — so the
	// caller gets a copy of the struct with its own table. Everything
	// else (Guarantees, Tasks, CoreTasks, Splits, ClusterCores) is the
	// planner's and must not be written; guarantees a cache shares with
	// every later hit are the caller's own copy.
	out := *res
	if fn == nil && !s.Incremental && s.Cache != nil {
		out.Guarantees = slices.Clone(res.Guarantees)
	}
	s.generation++
	tbl.Generation = s.generation
	out.Table = tbl
	out.FromCache = hit
	return tbl, &out, nil
}

// planOptsLocked derives the options one planning attempt should use:
// the configured options on the surviving topology (the planner's
// admission check is the gate that decides whether a degraded host can
// still carry the reserved utilization), with the cache's slice memo.
func (s *System) planOptsLocked() (planner.Options, error) {
	opts := s.plannerOpts
	online := s.onlineCoresLocked()
	if len(online) == 0 {
		return opts, fmt.Errorf("core: every core has failed")
	}
	opts.Cores = len(online)
	if s.Cache != nil {
		opts.Slices = s.Cache.SliceCache()
	}
	return opts, nil
}

// plan is the one place plan reuse is decided, a three-rung ladder on
// the system's mode. An incremental system replans from its previous
// plan and never touches the whole-plan cache: incremental tables depend
// on planning history, so they cannot be shared, and under churn the
// exact population almost never recurs, so there is nothing to look up
// (only the cache's slice memo is used, through opts.Slices). A system
// with a cache but no incremental mode asks the cache, which plans on a
// miss; hit reports a served lookup. Otherwise every plan is from
// scratch. The Result may be shared (with other users of the cache, with
// the next incremental plan): planLocked treats it as read-only.
func (s *System) plan(specs []planner.VCPUSpec, opts planner.Options) (res *planner.Result, hit bool, err error) {
	switch {
	case s.Incremental:
		inc := s.incLocked()
		res, err = inc.arena.PlanIncremental(specs, opts, inc.prev)
	case s.Cache != nil:
		res, hit, err = s.Cache.Plan(specs, opts)
	default:
		res, err = planner.Plan(specs, opts)
	}
	return res, hit, err
}

// incremental is what an Incremental System carries from one plan to
// the next. prev is the last successful plan as the planner returned it,
// the PlanIncremental input, once its remap has succeeded; arena is the
// planner workspace the system's plans run in.
type incremental struct {
	prev  *planner.PrevPlan
	arena planner.Arena
}

func (s *System) incLocked() *incremental {
	if s.inc == nil {
		s.inc = new(incremental)
	}
	return s.inc
}

// admitLocked returns the planner's admission verdict on the active
// population — of its LS slots only when lsOnly — on the surviving
// cores. Every slot's spec was validated when set, so it only sums in
// place and compares the names of slots marked shared; the plan still
// runs the planner's full admission.
func (s *System) admitLocked(lsOnly bool) (err error) {
	if onAdmit != nil {
		defer func() { onAdmit(s, lsOnly, err) }()
	}
	cores := len(s.onlineCoresLocked())
	if cores == 0 {
		return fmt.Errorf("core: every core has failed")
	}
	var total planner.UtilTotal
	for id := range s.slots {
		sl := &s.slots[id]
		if !sl.active {
			continue
		}
		if sl.shared && slices.ContainsFunc(s.slots[:id], func(o slot) bool { return o.active && o.cfg.Name == sl.cfg.Name }) {
			return &planner.DuplicateNameError{Name: sl.cfg.Name}
		}
		if !lsOnly || sl.cfg.Class == LS {
			total.Add(sl.cfg.Util)
		}
	}
	return total.Check(cores)
}

// onAdmit, when set (tests only), sees each admitLocked verdict as given.
var onAdmit func(s *System, lsOnly bool, err error)

// remapLocked places a planner table (vCPU ids = slot ids, core ids =
// logical survivor order) on the physical cores: a VCPUs entry for every
// slot (inactive ones fully fenced) and — when cores have failed — the
// logical planner cores on the live physical ids, with empty CoreTables
// holding the dead cores' positions. Each placed core shares the
// planner's allocation list, as committed tables are never written: a
// core the planner adopted from the previous plan is the previous
// epoch's list too.
//
// trusted marks tables the in-process planner produced: those were
// validated, bounded and guarantee-checked before they were returned,
// so re-checking here would redo work per churn flush. A table from an
// external backend (PlanVia) must name active slots and cores only, and
// is validated and held to the slice bound here.
func (s *System) remapLocked(in *table.Table, trusted bool) (*table.Table, error) {
	online := s.onlineCoresLocked()
	if len(in.Cores) > len(online) {
		return nil, fmt.Errorf("core: planner produced %d core tables for %d online cores", len(in.Cores), len(online))
	}
	out := &table.Table{Len: in.Len}
	out.VCPUs = make([]table.VCPUInfo, len(s.slots))
	for id, sl := range s.slots {
		vi := table.VCPUInfo{Capped: true, HomeCore: -1} // inactive: fully fenced
		if sl.active && id < len(in.VCPUs) {
			vi = in.VCPUs[id]
			if vi.HomeCore >= 0 && vi.HomeCore < len(online) {
				vi.HomeCore = online[vi.HomeCore]
			}
		}
		vi.Name = sl.cfg.Name
		out.VCPUs[id] = vi
	}
	out.Cores = make([]table.CoreTable, s.cores)
	for c := range out.Cores {
		out.Cores[c].Core = c
	}
	for _, src := range in.Cores {
		if src.Core < 0 || src.Core >= len(online) {
			return nil, fmt.Errorf("core: planner produced a table for core %d of %d online", src.Core, len(online))
		}
		out.Cores[online[src.Core]].Allocs = src.Allocs
	}
	if !trusted {
		for _, ct := range out.Cores {
			for _, a := range ct.Allocs {
				if a.VCPU != table.Idle && (a.VCPU < 0 || a.VCPU >= len(s.slots) || !s.slots[a.VCPU].active) {
					return nil, fmt.Errorf("core: planning backend's table gives core %d time to vcpu %d, no active slot", ct.Core, a.VCPU)
				}
			}
		}
		if err := out.Validate(); err != nil {
			return nil, fmt.Errorf("core: remapped table invalid: %w", err)
		}
		if err := out.CheckSliceBound(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BuildDispatcher plans the current population and returns a dispatcher
// enacting the result, ready to attach to a vmm machine with one vCPU
// per slot.
func (s *System) BuildDispatcher() (*dispatch.Dispatcher, *planner.Result, error) {
	tbl, res, err := s.Plan()
	if err != nil {
		return nil, nil, err
	}
	return dispatch.New(tbl, s.dispatchOpts), res, nil
}

// Push replans and stages the new table on a live sink: the paper's
// reconfiguration path (planner daemon regenerates, pushes via
// hypercall, dispatcher switches at a safe boundary). The plan and the
// install happen under the system lock, so concurrent pushes cannot
// interleave a stale table after a fresher one.
func (s *System) Push(d TableSink) (*planner.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tbl, res, err := s.planLocked(nil)
	if err != nil {
		return nil, err
	}
	if err := d.PushTable(tbl); err != nil {
		return nil, err
	}
	return res, nil
}

// EmergencyReplan is the control plane's fail-stop reaction: mark the
// core failed, replan the whole population onto the survivors, and
// stage the recovery table on the live sink. The planner's admission
// check gates the recovery — if the surviving cores cannot carry the
// reserved utilization, the error is returned and the dispatcher stays
// in best-effort degraded mode (the core remains marked failed either
// way, so a later retry plans on the same surviving set).
func (s *System) EmergencyReplan(d TableSink, core int) (*planner.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.markCoreFailedLocked(core); err != nil {
		return nil, err
	}
	tbl, res, err := s.planLocked(nil)
	if err != nil {
		return nil, err
	}
	if err := d.PushTable(tbl); err != nil {
		return nil, err
	}
	return res, nil
}
