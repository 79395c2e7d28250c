package fleet

import (
	"errors"
	"fmt"
	"sync"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/faults"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// The resident system VM every host keeps in slot 0: it never departs,
// so the host's planner always has a population and every epoch carries
// at least one guarantee. Its tiny reservation is the host's fixed
// overhead in the fleet's headroom arithmetic.
var residentUtil = planner.Util{Num: 1, Den: 64}

const (
	residentName = "sys"
	residentGoal = int64(100_000_000)
)

// nullSink discards installed tables: fleet hosts exercise the control
// plane (planning, admission, epochs), not second-level dispatch.
type nullSink struct{}

func (nullSink) PushTable(*table.Table) error { return nil }

// Host is one Tableau host in the fleet: a core.System population, the
// core.Controller serializing its replans, and the occupancy metadata
// the arbiter's optimistic protocol needs — a committed version, free
// slots, reserved utilization, and a ledger of committed transitions.
//
// The placement-relevant part of that metadata — version, headroom,
// state, pool — is mirrored into the host's cell on the arbiter's
// board before the lock is released at every transition that changes
// it (unlockPublished), which is what lets Snapshot, State and Spare
// answer without the lock.
//
// Slot ids are fixed at host construction (vCPU ids are fixed at
// machine start); fleet-level VM identity lives in the name<->slot
// maps here, because slots are recycled across guest generations.
// Slot names are the generic "s1".."sN" on every host, so two hosts
// whose populations coincide share planner.Cache entries.
//
// With Config.Journal set, every host's Controller commits through a
// durable epoch journal wrapped in an armable faults.CrashStore: a
// fired crash point makes the flush fail with ErrCrashed, the host
// goes Down, and the arbiter's Failover recovers it from the surviving
// image (or evacuates it when there is none).
type Host struct {
	id    int
	cell  *cell // this host's entry on the arbiter's headroom board
	cores int
	seq   func() uint64
	cache *planner.Cache

	mu        sync.Mutex
	sys       *core.System
	ctrl      *core.Controller
	journal   *faults.CrashStore // nil when journaling is disabled
	state     HostState
	spare     bool
	downImage []byte // surviving journal image at crash (nil: unrecoverable)
	version   uint64
	usedPPM   int64
	free      []int // LIFO stack of unoccupied slots
	slotGuest []VM  // per-slot guest (zero Name: unoccupied)
	ledger    []Commit
	vmSlot    map[string]int
}

// initHost builds host id in place (the arbiter carves its hosts from
// one slab) and publishes its first cell to c.
func initHost(h *Host, id, cores, slots int, cache *planner.Cache, seq func() uint64, spare, journaled bool, c *cell) error {
	if slots < 2 {
		return fmt.Errorf("fleet: host %d needs at least 2 slots (1 resident + 1 guest), got %d", id, slots)
	}
	sys := core.NewSystem(cores, planner.Options{}, dispatch.Options{})
	sys.Cache = cache
	if _, err := sys.AddVM(core.VMConfig{
		Name: residentName, Util: residentUtil, LatencyGoal: residentGoal, Capped: true,
	}); err != nil {
		return err
	}
	for s := 1; s < slots; s++ {
		if _, err := sys.AddVM(core.VMConfig{
			Name: fmt.Sprintf("s%d", s), Util: residentUtil, LatencyGoal: residentGoal, Capped: true,
		}); err != nil {
			return err
		}
		if err := sys.SetActive(s, false); err != nil {
			return err
		}
	}
	_, res, err := sys.Plan()
	if err != nil {
		return fmt.Errorf("fleet: host %d initial plan: %w", id, err)
	}
	ctrl, err := core.NewController(sys, nullSink{}, res)
	if err != nil {
		return err
	}
	*h = Host{
		id:        id,
		cores:     cores,
		seq:       seq,
		cache:     cache,
		cell:      c,
		sys:       sys,
		ctrl:      ctrl,
		spare:     spare,
		version:   ctrl.Epoch().Version,
		usedPPM:   VM{Util: residentUtil}.ppm(),
		slotGuest: make([]VM, slots),
		vmSlot:    make(map[string]int),
	}
	if journaled {
		// The journal is the host's commit point from here on; the idle
		// crash store passes every append through until a storm arms it.
		cs := faults.NewIdleCrashStore(journal.NewMemStore())
		if err := ctrl.AttachJournal(journal.NewWriter(cs)); err != nil {
			return fmt.Errorf("fleet: host %d journal baseline: %w", id, err)
		}
		h.journal = cs
	}
	// Push free slots in descending order so the pop order (and with it
	// slot reuse, table shape, and cache keys) ascends deterministically.
	for s := slots - 1; s >= 1; s-- {
		h.free = append(h.free, s)
	}
	h.publishLocked() // not yet shared: no lock needed
	return nil
}

// publishLocked mirrors the lock-protected placement metadata into the
// host's board cell. Headroom goes first and the version last, and
// readers load them in the opposite order, so a reader's headroom is
// never older than the version it pairs it with.
func (h *Host) publishLocked() {
	h.cell.freePPM.Store(int64(h.cores)*1_000_000 - h.usedPPM)
	h.cell.meta.Store(packMeta(len(h.free), h.state, h.spare))
	h.cell.version.Store(h.version)
}

// unlockPublished ends every method that can change the version, the
// headroom, the state or the pool: publish, then release the lock, so
// the board never lags a transition a lock holder could have seen.
func (h *Host) unlockPublished() {
	h.publishLocked()
	h.mu.Unlock()
}

// ID returns the host's fleet-wide id.
func (h *Host) ID() int { return h.id }

// State returns the host's failure-lifecycle state (a lock-free read
// of the published cell).
func (h *Host) State() HostState { return metaState(h.cell.meta.Load()) }

// Spare reports whether the host is in the spare pool (a lock-free read
// of the published cell).
func (h *Host) Spare() bool { return h.cell.meta.Load()&metaSpare != 0 }

// promote moves a spare host into the regular pool (a dead regular
// host's replacement).
func (h *Host) promote() {
	h.mu.Lock()
	defer h.unlockPublished()
	h.spare = false
}

// Arm installs a crash plan on the host's journal store. The crash
// fires when the host's commit traffic reaches the planned append.
func (h *Host) Arm(plan faults.CrashPlan) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.journal == nil {
		return fmt.Errorf("fleet: host %d has no journal to crash (Config.Journal off)", h.id)
	}
	if h.state != HostUp {
		return fmt.Errorf("fleet: host %d is %s: %w", h.id, h.state, ErrHostDown)
	}
	return h.journal.Arm(plan)
}

// Snapshot returns the host's committed version and advisory headroom
// as last published — a lock-free read of the host's board cell, small
// enough to inline (a fleet-wide sweep is a few nanoseconds per host).
func (h *Host) Snapshot() Snapshot {
	v := h.cell.view()
	return Snapshot{
		Host:      h.id,
		Version:   v.version,
		FreeSlots: int(v.meta >> metaSlotShift),
		FreePPM:   v.freePPM,
		State:     metaState(v.meta),
		Spare:     v.meta&metaSpare != 0,
	}
}

// LiveGuests returns the host's guest VMs in ascending slot order (the
// resident excluded) — the displacement set when the host dies.
func (h *Host) LiveGuests() []VM {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []VM
	for s := 1; s < len(h.slotGuest); s++ {
		if h.slotGuest[s].Name != "" {
			out = append(out, h.slotGuest[s])
		}
	}
	return out
}

// Reject is one VM a commit could not place, with the reason. NoSlot
// marks slot scarcity (refused before admission ran).
type Reject struct {
	VM     VM
	Err    error
	NoSlot bool
}

// CommitResult reports the outcome of one versioned commit: the host's
// version after the commit, the VM names placed, and the per-VM
// rejects. Shed names the best-effort VMs the host deactivated to
// admit this commit's latency-sensitive placements — the caller must
// drop them from any fleet-level registry.
type CommitResult struct {
	Version uint64
	Placed  []string
	Shed    []string
	Rejects []Reject
}

// markDownLocked transitions the host to Down after a flush died on
// its crashed journal: freeze the surviving image (nil when the disk
// died too) and append the crash seam to the ledger. The in-memory
// batch already rolled back, so the host's maps describe exactly the
// acked commits — the delta against the frozen image is what recovery
// reconciles. The image is frozen once: recovery and the ledger entry
// only read it, so they share it.
func (h *Host) markDownLocked() {
	h.state = HostDown
	img, err := h.journal.Surviving()
	if err != nil {
		img = nil
	}
	h.downImage = img
	h.ledger = append(h.ledger, Commit{
		Seq:     h.seq(),
		Version: h.version,
		Event:   "crash",
		Image:   img,
	})
	// The dead process's controller accepts nothing more; ignore the
	// close error (syncing a crashed journal reports the crash).
	_ = h.ctrl.Close()
}

// CommitPlacements atomically places vms on the host, provided the
// host's committed version still equals expect — otherwise the commit
// loses with ErrConflict and changes nothing. A winning commit assigns
// each VM a free slot and flushes one [reconfigure, activate] pair per
// VM through the Controller as a single transactional batch; the
// planner's admission check inside the flush is the authoritative
// gate, so individual VMs can come back rejected even though the
// caller's snapshot predicted a fit. Placed and rejected VMs are
// reported per name; only a stale version (ErrConflict) or a crashed
// host (ErrHostDown) is an error.
func (h *Host) CommitPlacements(expect uint64, vms []VM) (CommitResult, error) {
	h.mu.Lock()
	defer h.unlockPublished()
	if h.state != HostUp {
		return CommitResult{Version: h.version}, ErrHostDown
	}
	if h.version != expect {
		return CommitResult{Version: h.version}, ErrConflict
	}
	res := CommitResult{Version: h.version}
	// The live protocol commits one VM at a time: size the scratch for
	// that on the stack and let a batch grow it.
	type pick struct {
		slot int
		vm   VM
	}
	var (
		opsBuf   [2]core.Op
		takenBuf [1]pick
	)
	ops := opsBuf[:0]
	taken := takenBuf[:0] // slots handed out, in vm order
	for _, vm := range vms {
		spec := planner.VCPUSpec{Name: vm.Name, Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: true, Class: vm.Class}
		if err := spec.Validate(); err != nil {
			res.Rejects = append(res.Rejects, Reject{VM: vm, Err: err})
			continue
		}
		if _, dup := h.vmSlot[vm.Name]; dup {
			res.Rejects = append(res.Rejects, Reject{VM: vm, Err: fmt.Errorf("fleet: VM %q already on host %d", vm.Name, h.id)})
			continue
		}
		if len(h.free) == 0 {
			res.Rejects = append(res.Rejects, Reject{VM: vm, Err: fmt.Errorf("fleet: host %d has no free slot", h.id), NoSlot: true})
			continue
		}
		slot := h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		taken = append(taken, pick{slot, vm})
		// SetClass rides the reconfigure: slots are recycled across guest
		// generations, so the class must be restamped even back to LS.
		ops = append(ops,
			core.Op{Kind: core.OpReconfigure, Slot: slot, Util: vm.Util, LatencyGoal: vm.LatencyGoal, SetClass: true, Class: vm.Class},
			core.Op{Kind: core.OpActivate, Slot: slot},
		)
	}
	if len(ops) == 0 {
		return res, nil
	}
	h.ctrl.SubmitBatch(ops)
	tr, err := h.ctrl.Flush()
	if err != nil {
		// The whole batch rolled back: the population is unchanged, so
		// hand the slots back (restoring pop order). A crashed journal
		// takes the host down — the caller retries elsewhere; any other
		// rollback reports every attempted VM rejected.
		for i := len(taken) - 1; i >= 0; i-- {
			h.free = append(h.free, taken[i].slot)
		}
		if errors.Is(err, faults.ErrCrashed) {
			h.markDownLocked()
			return CommitResult{Version: h.version}, ErrHostDown
		}
		for _, p := range taken {
			res.Rejects = append(res.Rejects, Reject{VM: p.vm, Err: err})
		}
		return res, nil
	}
	for _, p := range taken {
		if rerr := activateRejection(tr, p.slot); rerr != nil {
			// Admission (or shed) refused the activate; its paired
			// reconfigure may have committed on the inactive slot, which
			// is harmless — the next occupant reconfigures it again.
			h.free = append(h.free, p.slot)
			res.Rejects = append(res.Rejects, Reject{VM: p.vm, Err: rerr})
			continue
		}
		h.vmSlot[p.vm.Name] = p.slot
		h.slotGuest[p.slot] = p.vm
		h.usedPPM += p.vm.ppm()
		res.Placed = append(res.Placed, p.vm.Name)
	}
	// Release the slots of any best-effort guests the controller shed to
	// admit this batch: a Shed-marked deactivation is a committed,
	// journaled departure the host initiated, so the occupant's
	// bookkeeping is torn down exactly like CommitDepartures'. This runs
	// after the placed loop so a guest placed and then shed within the
	// same batch is released too.
	for _, op := range tr.Committed {
		if !op.Shed {
			continue
		}
		name := h.slotGuest[op.Slot].Name
		if name == "" {
			continue
		}
		delete(h.vmSlot, name)
		h.usedPPM -= h.slotGuest[op.Slot].ppm()
		h.slotGuest[op.Slot] = VM{}
		h.free = append(h.free, op.Slot)
		res.Shed = append(res.Shed, name)
	}
	if tr.Version != 0 {
		h.version = tr.Version
		// The transition is this commit's alone, so the ledger keeps its
		// op list as is; the names go to the caller too, so those it copies.
		h.ledger = append(h.ledger, Commit{
			Seq:     h.seq(),
			Version: tr.Version,
			Placed:  append([]string(nil), res.Placed...),
			Shed:    append([]string(nil), res.Shed...),
			Ops:     tr.Committed,
		})
	}
	res.Version = h.version
	return res, nil
}

// activateRejection returns the reason the flush refused to activate
// slot, or nil if it did not.
func activateRejection(tr *core.Transition, slot int) error {
	for _, rj := range tr.Rejected {
		if rj.Op.Kind == core.OpActivate && rj.Op.Slot == slot {
			return rj.Err
		}
	}
	return nil
}

// CommitDepartures atomically tears the named VMs down, under the same
// versioned-commit rule as CommitPlacements. Every name must be live
// on this host. Departures shed no utilization, so the flush cannot
// reject them; a crashed journal takes the host down (ErrHostDown, the
// VMs stay live for recovery to resolve), and any other flush failure
// is returned as a real error.
func (h *Host) CommitDepartures(expect uint64, names []string) (CommitResult, error) {
	h.mu.Lock()
	defer h.unlockPublished()
	if h.state != HostUp {
		return CommitResult{Version: h.version}, ErrHostDown
	}
	if h.version != expect {
		return CommitResult{Version: h.version}, ErrConflict
	}
	res := CommitResult{Version: h.version}
	var opsBuf [1]core.Op // one departure at a time on the live protocol
	ops := opsBuf[:0]
	for _, name := range names {
		slot, ok := h.vmSlot[name]
		if !ok {
			return res, fmt.Errorf("fleet: host %d does not hold VM %q", h.id, name)
		}
		ops = append(ops, core.Op{Kind: core.OpDeactivate, Slot: slot})
	}
	if len(ops) == 0 {
		return res, nil
	}
	h.ctrl.SubmitBatch(ops)
	tr, err := h.ctrl.Flush()
	if err != nil {
		if errors.Is(err, faults.ErrCrashed) {
			h.markDownLocked()
			return CommitResult{Version: h.version}, ErrHostDown
		}
		return res, fmt.Errorf("fleet: host %d departure flush: %w", h.id, err)
	}
	for _, name := range names {
		slot := h.vmSlot[name]
		delete(h.vmSlot, name)
		h.usedPPM -= h.slotGuest[slot].ppm()
		h.slotGuest[slot] = VM{}
		h.free = append(h.free, slot)
	}
	if tr.Version != 0 {
		h.version = tr.Version
		h.ledger = append(h.ledger, Commit{
			Seq:      h.seq(),
			Version:  tr.Version,
			Departed: append([]string(nil), names...),
			Ops:      tr.Committed,
		})
	}
	res.Version = h.version
	return res, nil
}

// Recover replays the host's surviving journal image and rejoins the
// fleet: Down → Recovering → Up. The journal is the ground truth —
// the in-memory maps describe only acked commits, so the seam between
// them is reconciled toward the journal:
//
//   - a ghost slot (journal-active, maps-unoccupied) is the crashing
//     placement whose record proved durable after the flush rolled
//     back; the arbiter already retried that VM elsewhere, so the
//     rejoin flush deactivates the ghost before the host takes
//     traffic — the no-double-placement guarantee across the seam.
//   - a freed slot (journal-inactive, maps-occupied) is the crashing
//     departure or shed whose record proved durable; the guest is
//     resolved as departed and its names are returned for the caller
//     to drop from the registry.
//
// The rejoin flush always commits a fresh epoch (ghost deactivations,
// or an identity reconfigure of the resident slot when there are
// none), and the recovered System resumes version numbering past the
// journal's maximum — so the rejoin version strictly exceeds every
// pre-crash version and any still-in-flight commit loses with
// ErrConflict, never a silent double-apply.
//
// On failure the host stays Down with its image intact (the caller
// falls back to evacuation).
func (h *Host) Recover() ([]string, error) {
	h.mu.Lock()
	defer h.unlockPublished()
	if h.state != HostDown {
		return nil, fmt.Errorf("fleet: host %d is %s, not down", h.id, h.state)
	}
	if h.downImage == nil {
		return nil, fmt.Errorf("fleet: host %d has no surviving journal image", h.id)
	}
	h.state = HostRecovering
	freed, err := h.recoverLocked()
	if err != nil {
		h.state = HostDown
		return nil, err
	}
	h.state = HostUp
	h.downImage = nil
	return freed, nil
}

func (h *Host) recoverLocked() ([]string, error) {
	store := faults.NewIdleCrashStore(journal.NewMemStoreFrom(h.downImage))
	ctrl, _, rep, err := core.Recover(store, core.RecoverOptions{
		Planner:  planner.Options{},
		Dispatch: dispatch.Options{},
		Sink:     nullSink{},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: host %d recovery: %w", h.id, err)
	}
	sys := ctrl.System()
	sys.Cache = h.cache

	// The recovered epoch's slot activation set is the journal's word,
	// independent of the in-memory maps.
	slots := rep.Slots
	if len(slots) != len(h.slotGuest) {
		return nil, fmt.Errorf("fleet: host %d journal has %d slots, host has %d", h.id, len(slots), len(h.slotGuest))
	}

	var ghosts, freedSlots []int
	var freedNames, recovered []string
	for s := 1; s < len(slots); s++ {
		occupied := h.slotGuest[s].Name != ""
		switch {
		case slots[s].Active && !occupied:
			ghosts = append(ghosts, s)
		case !slots[s].Active && occupied:
			freedSlots = append(freedSlots, s)
			freedNames = append(freedNames, h.slotGuest[s].Name)
		case occupied:
			recovered = append(recovered, h.slotGuest[s].Name)
		}
	}

	// Rejoin flush: deactivate the ghosts, or touch the resident slot
	// when there are none — either way a fresh epoch commits and the
	// host's version moves past everything a pre-crash snapshot saw.
	ops := make([]core.Op, 0, len(ghosts))
	for _, s := range ghosts {
		ops = append(ops, core.Op{Kind: core.OpDeactivate, Slot: s})
	}
	if len(ops) == 0 {
		ops = append(ops, core.Op{Kind: core.OpReconfigure, Slot: 0, Util: residentUtil, LatencyGoal: residentGoal})
	}
	ctrl.SubmitBatch(ops)
	tr, err := ctrl.Flush()
	if err != nil {
		return nil, fmt.Errorf("fleet: host %d rejoin flush: %w", h.id, err)
	}
	if len(tr.Rejected) > 0 || tr.Version == 0 {
		return nil, fmt.Errorf("fleet: host %d rejoin flush rejected %d ops", h.id, len(tr.Rejected))
	}

	// Swap in the recovered control plane and rebuild the occupancy
	// bookkeeping from the reconciled maps.
	for _, s := range freedSlots {
		delete(h.vmSlot, h.slotGuest[s].Name)
		h.slotGuest[s] = VM{}
	}
	h.sys = sys
	h.ctrl = ctrl
	h.journal = store
	h.version = tr.Version
	h.usedPPM = VM{Util: residentUtil}.ppm()
	h.free = h.free[:0]
	for s := len(h.slotGuest) - 1; s >= 1; s-- {
		if h.slotGuest[s].Name == "" {
			h.free = append(h.free, s)
		} else {
			h.usedPPM += h.slotGuest[s].ppm()
		}
	}
	h.ledger = append(h.ledger, Commit{
		Seq:        h.seq(),
		Version:    tr.Version,
		Event:      "recover",
		Departed:   freedNames,
		Recovered:  recovered,
		GhostSlots: ghosts,
		FreedSlots: freedSlots,
		Ops:        append([]core.Op(nil), tr.Committed...),
	})
	return freedNames, nil
}

// markDead declares a Down host permanently failed: Down → Dead. Its
// guests are the caller's to evacuate; the evacuation seam is recorded
// via finishEvacuate.
func (h *Host) markDead() error {
	h.mu.Lock()
	defer h.unlockPublished()
	if h.state != HostDown {
		return fmt.Errorf("fleet: host %d is %s, not down", h.id, h.state)
	}
	h.state = HostDead
	h.downImage = nil
	return nil
}

// finishEvacuate appends the dead host's evacuation seam. seq was
// drawn before any evacuee re-placed, so every re-placement orders
// strictly after the seam in the fleet's total commit order.
func (h *Host) finishEvacuate(seq uint64, evacLS, evacBE, lost []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ledger = append(h.ledger, Commit{
		Seq:    seq,
		Event:  "evacuate",
		EvacLS: evacLS,
		EvacBE: evacBE,
		Lost:   lost,
	})
}

// Ledger returns a copy of the host's committed transitions in commit
// order.
func (h *Host) Ledger() []Commit {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Commit(nil), h.ledger...)
}

// History returns the host's committed epoch history. After a
// recovery it is the recovered history: the folded journal epochs plus
// everything committed since the rejoin.
func (h *Host) History() []core.Epoch {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ctrl.History()
}

// ControllerStats returns the host controller's cumulative counters.
func (h *Host) ControllerStats() core.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ctrl.ControllerStats()
}

// VMs returns the number of live guest VMs (the resident excluded).
func (h *Host) VMs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.vmSlot)
}

// Close shuts the host's controller down. A crashed journal's sync
// failure is not an error — the host is already dead.
func (h *Host) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.ctrl.Close()
	if errors.Is(err, faults.ErrCrashed) {
		return nil
	}
	return err
}
