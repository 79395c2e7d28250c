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
// and options it returns a planner result in the planner's universe
// (vCPU ids = spec order, core ids = logical survivor order). It is the
// hook through which planning can be served remotely (plannersvc) — nil
// means the local planner (System.plan's ladder).
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
}

// System models the host's VM population and produces scheduling
// tables for it. Slot indices are stable: they double as vCPU ids in
// the generated tables, so a dispatcher attached to a machine with one
// vCPU per slot can adopt every regenerated table.
//
// Locking discipline: mu guards slots, failed, and generation. Every
// exported method takes mu itself; unexported helpers with the Locked
// suffix assume it is held. Plan holds mu for the whole planning step,
// so concurrent control-plane calls serialize into one planner
// invocation at a time — the serialized replan pipeline Controller
// builds on. Cache has its own lock and RotateSplits/Cache are
// configuration set before first use, so neither needs mu.
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

	// RotateSplits advances the planner's split rotation on every Plan,
	// so that when the population forces C=D splitting, the migration
	// penalty is taken in turns instead of pinned to one vCPU (the
	// paper's Sec. 7.5 "all vCPUs take a turn being split").
	RotateSplits bool

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

	// UnsafeStaleSliceReuse arms the planner's mutation-smoke defect of
	// the same name on every local plan. Never set outside tests.
	UnsafeStaleSliceReuse bool

	// prev is the last successful plan in the planner universe (guarded
	// by mu), the PlanIncremental input. Only maintained when
	// Incremental is set.
	prev *planner.PrevPlan

	// Buffers reused from one planning step to the next, valid until the
	// helper that fills them runs again (all under mu): the active specs
	// and their slots, the online core ids, and the population snapshot a
	// flush may roll back to. Whatever outlives the step — PrevPlan's
	// specs, what a PlanFunc backend is handed — gets a private copy.
	specs    []planner.VCPUSpec
	specSlot []int
	online   []int
	snap     []slot
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
	spec := planner.VCPUSpec{Name: cfg.Name, Util: cfg.Util, LatencyGoal: cfg.LatencyGoal, Capped: cfg.Capped, Class: cfg.Class}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots = append(s.slots, slot{cfg: cfg, active: true})
	return len(s.slots) - 1, nil
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

// activeSpecsLocked materializes the active population as planner specs
// plus the owning slot of each spec (in s.specs and s.specSlot: valid
// until the next call).
func (s *System) activeSpecsLocked() (specs []planner.VCPUSpec, specSlot []int) {
	s.specs, s.specSlot = s.specs[:0], s.specSlot[:0]
	for id, sl := range s.slots {
		if !sl.active {
			continue
		}
		s.specs = append(s.specs, planner.VCPUSpec{
			Name:        sl.cfg.Name,
			Util:        sl.cfg.Util,
			LatencyGoal: sl.cfg.LatencyGoal,
			Capped:      sl.cfg.Capped,
			Class:       sl.cfg.Class,
		})
		s.specSlot = append(s.specSlot, id)
	}
	return s.specs, s.specSlot
}

// Plan generates a scheduling table covering every slot (with
// reservations only for active ones) and the planner's report. Each
// call increments the table generation.
func (s *System) Plan() (*table.Table, *planner.Result, error) {
	return s.PlanUsing(nil)
}

// PlanUsing is Plan with an explicit planning backend: fn receives the
// active specs and the topology-adjusted options and must return a
// result in the planner universe, which PlanUsing then remaps into the
// slot-id/physical-core universe exactly like Plan. A nil fn selects
// the local planner (System.plan's ladder). This is how remote
// planning (plannersvc.Client.PlanFunc) and the churn experiments'
// outage-simulating backends slot into the same pipeline.
func (s *System) PlanUsing(fn PlanFunc) (*table.Table, *planner.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planLocked(fn)
}

func (s *System) planLocked(fn PlanFunc) (*table.Table, *planner.Result, error) {
	specs, specSlot := s.activeSpecsLocked()
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: no active VMs to plan for")
	}
	opts, err := s.planOptsLocked(specs)
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
	if s.Incremental {
		// The planner-universe result seeds the next plan's dirty-core
		// diff. Any successful plan, local or remote, is the population
		// the next batch perturbs.
		s.prev = &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
	}
	tbl, err := s.remapLocked(res.Table, specSlot, fn == nil)
	if err != nil {
		return nil, nil, err
	}
	// res itself is read-only from here on — the cache may be sharing it
	// with other systems and s.prev diffs against it — so the caller gets
	// a copy of the struct with the two things the slot-id universe
	// changes: the guarantees (renumbered so callers can re-check) and
	// the table. Everything else (Tasks, CoreTasks, Splits, ClusterCores)
	// is shared and must not be written.
	out := *res
	out.Guarantees = make([]table.Guarantee, len(res.Guarantees))
	for i, g := range res.Guarantees {
		g.VCPU = specSlot[g.VCPU]
		out.Guarantees[i] = g
	}
	s.generation++
	tbl.Generation = s.generation
	out.Table = tbl
	out.FromCache = hit
	return tbl, &out, nil
}

// affinityForLocked narrows the configured physical-core affinity sets
// onto the current topology, renumbering to the planner's logical
// survivor ids. An active VM whose entire affinity set has failed is a
// planning error: silently placing it on a non-affine survivor would
// violate the placement constraint the affinity encoded. Inactive or
// unknown names whose sets empty out are dropped instead (an empty set
// means "unrestricted" to the planner, which would be the opposite of
// what was asked).
func (s *System) affinityForLocked(specs []planner.VCPUSpec, online []int) (map[string][]int, error) {
	logical := make(map[int]int, len(online))
	for l, phys := range online {
		logical[phys] = l
	}
	planned := make(map[string]bool, len(specs))
	for _, sp := range specs {
		planned[sp.Name] = true
	}
	out := make(map[string][]int, len(s.plannerOpts.Affinity))
	for name, cores := range s.plannerOpts.Affinity {
		var allowed []int
		for _, c := range cores {
			if l, ok := logical[c]; ok {
				allowed = append(allowed, l)
			}
		}
		if len(allowed) == 0 {
			if planned[name] {
				return nil, fmt.Errorf("core: affinity of %q unsatisfiable: every allowed core of %v has failed", name, cores)
			}
			continue
		}
		out[name] = allowed
	}
	return out, nil
}

// planOptsLocked derives the options one planning attempt should use:
// the configured options adjusted for split rotation, the surviving
// topology (the planner's admission check is the gate that decides
// whether a degraded host can still carry the reserved utilization),
// affinity narrowing, and the cache's slice memo.
func (s *System) planOptsLocked(specs []planner.VCPUSpec) (planner.Options, error) {
	opts := s.plannerOpts
	if s.RotateSplits {
		opts.SplitRotation = int(s.generation)
	}
	online := s.onlineCoresLocked()
	if len(online) == 0 {
		return opts, fmt.Errorf("core: every core has failed")
	}
	opts.Cores = len(online)
	if len(opts.Affinity) > 0 {
		aff, err := s.affinityForLocked(specs, online)
		if err != nil {
			return opts, err
		}
		opts.Affinity = aff
	}
	if s.Cache != nil {
		opts.Slices = s.Cache.SliceCache()
	}
	if s.UnsafeStaleSliceReuse {
		opts.UnsafeStaleSliceReuse = true
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
// s.prev): planLocked treats it as read-only.
func (s *System) plan(specs []planner.VCPUSpec, opts planner.Options) (res *planner.Result, hit bool, err error) {
	switch {
	case s.Incremental:
		res, err = planner.PlanIncremental(specs, opts, s.prev)
	case s.Cache != nil:
		res, hit, err = s.Cache.Plan(specs, opts)
	default:
		res, err = planner.Plan(specs, opts)
	}
	return res, hit, err
}

// remapLocked rewrites a planner table (vCPU ids = active-spec order,
// core ids = logical survivor order) into the slot-id and physical-core
// universe: empty entries for inactive slots, and — when cores have
// failed — logical planner cores renumbered onto the live physical
// ids, with empty CoreTables holding the dead cores' positions.
//
// trusted marks tables the in-process planner produced: those were
// validated and guarantee-checked before they were returned, the remap
// only renames ids (allocation timing is copied verbatim), and each
// core's slice index transplants unchanged, so re-validating and
// re-building here would redo work per churn flush. Tables from an
// external backend (PlanVia) get the full treatment.
func (s *System) remapLocked(in *table.Table, specSlot []int, trusted bool) (*table.Table, error) {
	online := s.onlineCoresLocked()
	if len(in.Cores) > len(online) {
		return nil, fmt.Errorf("core: planner produced %d core tables for %d online cores", len(in.Cores), len(online))
	}
	out := &table.Table{Len: in.Len}
	out.VCPUs = make([]table.VCPUInfo, len(s.slots))
	for id, sl := range s.slots {
		out.VCPUs[id] = table.VCPUInfo{
			Name:     sl.cfg.Name,
			Capped:   sl.cfg.Capped || !sl.active, // inactive: fully fenced
			HomeCore: -1,
		}
	}
	for specIdx, slotID := range specSlot {
		vi := in.VCPUs[specIdx]
		out.VCPUs[slotID].Capped = vi.Capped
		out.VCPUs[slotID].HomeCore = vi.HomeCore
		if vi.HomeCore >= 0 && vi.HomeCore < len(online) {
			out.VCPUs[slotID].HomeCore = online[vi.HomeCore]
		}
		out.VCPUs[slotID].Split = vi.Split
		out.VCPUs[slotID].UtilizationPPM = vi.UtilizationPPM
		out.VCPUs[slotID].LatencyGoal = vi.LatencyGoal
	}
	out.Cores = make([]table.CoreTable, s.cores)
	for c := range out.Cores {
		out.Cores[c].Core = c
	}
	// One backing for every core's allocations: an epoch's table lives
	// and dies as a whole.
	total := 0
	for c := range in.Cores {
		total += len(in.Cores[c].Allocs)
	}
	backing := make([]table.Alloc, 0, total)
	transplanted := true
	for c := range in.Cores {
		src := &in.Cores[c]
		phys := online[src.Core]
		dst := &out.Cores[phys]
		n := len(backing)
		for _, a := range src.Allocs {
			if a.VCPU != table.Idle {
				a.VCPU = specSlot[a.VCPU]
			}
			backing = append(backing, a)
		}
		dst.Allocs = backing[n:len(backing):len(backing)]
		if !dst.TransplantSlices(src) {
			transplanted = false
		}
	}
	if !trusted {
		if err := out.Validate(); err != nil {
			return nil, fmt.Errorf("core: remapped table invalid: %w", err)
		}
	}
	if !trusted || !transplanted {
		if err := out.BuildSlices(s.plannerOpts.MaxSlicesPerCore); err != nil {
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
