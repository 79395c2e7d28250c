package core

import (
	"fmt"
	"slices"
	"sync"

	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
	"tableau/internal/trace"
)

// This file is the churn-hardened reconfiguration pipeline: the paper's
// observation that tables are regenerated on demand as VMs come and go
// (Sec. 5, Sec. 7.1) meets the operational reality of arrival/departure
// storms. The Controller serializes concurrent population changes into
// a replan queue, coalesces each burst into a single planner invocation,
// versions the resulting tables as monotonic epochs, and makes every
// transition transactional: a batch that fails admission or cannot be
// installed is rolled back so the dispatcher keeps enacting the
// previous epoch bit-for-bit and already-admitted VMs never lose their
// guarantee.

// OpKind enumerates the control-plane operations a Controller accepts.
type OpKind uint8

const (
	// OpActivate creates the VM in slot Slot (a pre-registered slot,
	// since vCPU ids are fixed at machine start).
	OpActivate OpKind = iota
	// OpDeactivate tears the VM in slot Slot down.
	OpDeactivate
	// OpReconfigure changes slot Slot's reservation to (Util,
	// LatencyGoal).
	OpReconfigure
	// OpFailCore records the fail-stop of physical core Core. Failures
	// are facts, not requests: they are never rejected and never rolled
	// back, and their presence marks the transition as an emergency.
	OpFailCore
)

func (k OpKind) String() string {
	switch k {
	case OpActivate:
		return "activate"
	case OpDeactivate:
		return "deactivate"
	case OpReconfigure:
		return "reconfigure"
	case OpFailCore:
		return "failcore"
	}
	return "unknown"
}

// Op is one queued control-plane operation.
type Op struct {
	Kind        OpKind
	Slot        int   // Activate / Deactivate / Reconfigure
	Util        Util  // Reconfigure
	LatencyGoal int64 // Reconfigure
	Core        int   // FailCore

	// SetClass, on a Reconfigure, additionally changes the slot's
	// tenancy class to Class (fleet hosts recycle slots across
	// placements of different classes). Zero value leaves the class
	// untouched.
	SetClass bool
	Class    Class

	// Shed marks a committed OpDeactivate the controller synthesized
	// itself: a best-effort guest deactivated to make room for a
	// latency-sensitive admission under overload. Shed ops appear in
	// Transition.Committed and in the journaled epoch like any other
	// deactivation — the class-continuity oracle requires every BE
	// absence to be explained by exactly such a committed op.
	Shed bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpFailCore:
		return fmt.Sprintf("failcore(%d)", o.Core)
	case OpReconfigure:
		return fmt.Sprintf("reconfigure(%d,%d/%d,%d)", o.Slot, o.Util.Num, o.Util.Den, o.LatencyGoal)
	case OpDeactivate:
		if o.Shed {
			return fmt.Sprintf("shed(%d)", o.Slot)
		}
	}
	return fmt.Sprintf("%s(%d)", o.Kind, o.Slot)
}

// Rejection is one op the pipeline refused, with the reason. A rejected
// op's effects are undone before the batch is planned, so rejections
// never leak into an installed epoch.
type Rejection struct {
	Op  Op
	Err error
}

// Epoch is one installed table version. Version equals the table's
// Generation and increases monotonically; Bytes is the compact wire
// encoding of the table at install time (slice index omitted — Decode
// rebuilds it), kept so tests and oracles can compare epochs
// bit-for-bit.
type Epoch struct {
	Version    uint64
	Table      *table.Table
	Guarantees []table.Guarantee
	Bytes      []byte
}

// Transition reports the outcome of one Flush.
type Transition struct {
	// Version is the installed epoch (0 when the batch was rolled back
	// or contained no effective ops — the previous epoch stands).
	Version uint64
	// Committed holds the ops that made it into the installed epoch, in
	// arrival order.
	Committed []Op
	// Rejected holds the ops refused by admission or shed when planning
	// failed; their effects were undone individually.
	Rejected []Rejection
	// RolledBack reports that the whole batch was undone: the
	// population snapshot was restored and the sink was left on the
	// previous epoch.
	RolledBack bool
	// Emergency reports that the batch contained a core fail-stop.
	Emergency bool
	// PlannerCalls counts planner invocations this flush performed
	// (1 for a clean batch; +1 per shed retry).
	PlannerCalls int
	// Err is the terminal error of a rolled-back flush (also returned
	// by Flush).
	Err error
}

// Stats are the Controller's cumulative counters.
type Stats struct {
	Flushes      int64 // Flush calls that had pending ops
	Transitions  int64 // epochs installed
	OpsCoalesced int64 // ops drained by Flush
	Rejections   int64 // ops individually refused
	Rollbacks    int64 // whole batches undone
	PlannerCalls int64 // planner invocations
}

// stagedAborter is the optional sink capability the emergency rollback
// path uses: withdrawing a staged, not-yet-adopted table so the sink
// keeps enacting the previous epoch. *dispatch.Dispatcher implements it.
type stagedAborter interface {
	AbortStaged() *table.Table
}

// Controller is the serialized replan pipeline on top of a System.
// Submit enqueues operations from any goroutine; Flush drains the queue
// as one transactional batch: per-op admission checks, a single planner
// invocation for the survivors, a staged install through the sink at a
// safe table boundary, and rollback of the whole batch when planning or
// installation fails. Once a System is owned by a Controller, all
// population changes must go through it — direct System mutation would
// bypass the snapshot the rollback path restores.
//
// Lock ordering: Controller.mu is taken before System.mu, never the
// reverse.
type Controller struct {
	mu      sync.Mutex
	sys     *System
	sink    TableSink
	pending []Op
	epoch   Epoch
	history []Epoch
	stats   Stats

	// PlanVia, when set, replaces the local planner as the planning
	// backend (see System.PlanUsing) — the hook through which the
	// remote plannersvc path (breaker + fallback) serves churn. Set
	// before the first Flush.
	PlanVia PlanFunc

	// UnsafeShedLSFirst is a mutation-smoke defect switch: it inverts
	// the class-aware shed order, so an overloaded admission sheds
	// latency-sensitive guests while best-effort guests keep running.
	// The class-continuity oracle must convict the inverted order (an
	// LS guest shed while BE guests remain active). Never set outside
	// tests.
	UnsafeShedLSFirst bool

	// MaxHistory bounds the retained epoch history. Every committed
	// epoch holds a full table plus its wire encoding, so an unbounded
	// history grows the live heap linearly with churn on a long-lived
	// host. When positive, only the newest MaxHistory epochs are kept
	// (never fewer than 2, so the emergency-rollback predecessor stays
	// reachable); zero, the default, retains everything for the
	// verification oracles. Set before the first Flush.
	MaxHistory int

	// Tracer, when set, receives an EvPlanOrigin record for every
	// installed epoch (alongside the dispatcher's plannercall record):
	// where the plan came from and how much of it was reused. NowFn
	// supplies the record timestamp (sim time); nil stamps zero.
	Tracer *trace.Tracer
	NowFn  func() int64

	// journal, when set, receives one durable record per committed
	// epoch and is the commit point of every Flush: a batch whose
	// record cannot be appended rolls back (the staged table is
	// withdrawn), so the log never disagrees with the installed epoch
	// history. Set via AttachJournal, or by Recover when resuming from
	// a previous journal.
	journal *journal.Writer

	// closed is set by Close: Flush refuses further batches.
	closed bool
}

// NewController wraps sys, installing tables into sink. initial is the
// planner result the sink currently enacts (from BuildDispatcher); it
// becomes epoch 1 of the history.
func NewController(sys *System, sink TableSink, initial *planner.Result) (*Controller, error) {
	c := &Controller{sys: sys, sink: sink}
	if initial != nil {
		// The caller keeps initial; the epoch gets its own guarantees.
		ep, err := epochOf(initial.Table, slices.Clone(initial.Guarantees), Epoch{})
		if err != nil {
			return nil, err
		}
		c.epoch = ep
		c.history = append(c.history, ep)
	}
	return c, nil
}

// epochOf encodes tbl as the epoch after prev. Cores whose schedules are
// unchanged from prev have their wire segments copied instead of
// re-encoded (verified by content comparison, so the bytes are exactly
// what a full encode produces); a zero prev is a full encode. The epoch
// takes gs over: callers hand it guarantees nothing else will write.
func epochOf(tbl *table.Table, gs []table.Guarantee, prev Epoch) (Epoch, error) {
	enc, err := tbl.AppendEncodedReusingCompact(nil, prev.Table, prev.Bytes)
	if err != nil {
		return Epoch{}, fmt.Errorf("core: encoding epoch %d: %w", tbl.Generation, err)
	}
	return Epoch{
		Version:    tbl.Generation,
		Table:      tbl,
		Guarantees: gs,
		Bytes:      enc,
	}, nil
}

// AttachJournal makes w the controller's durable epoch log and
// immediately journals the current epoch as the baseline record, so a
// recovery replaying the journal always finds the population the
// history started from. Attach before the first Flush; every committed
// epoch from here on is appended (and is only committed once the
// append succeeds).
func (c *Controller) AttachJournal(w *journal.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.epoch.Table == nil {
		return fmt.Errorf("core: no epoch to journal — create the controller with the initial plan first")
	}
	if err := w.Append(c.sys.journalRecordLocked(c.epoch)); err != nil {
		return err
	}
	c.journal = w
	return nil
}

// Journal returns the attached epoch journal (nil when none).
func (c *Controller) Journal() *journal.Writer { return c.journal }

// journalRecordLocked is System's half of the epoch record: the
// committed epoch plus the population and topology facts recovery
// needs. System.mu is held, so the snapshot is the exact state the
// epoch was planned from. The record aliases ep's guarantees and bytes:
// it is for handing straight to journal.Writer.Append, which serialises
// it and keeps nothing.
func (s *System) journalRecordLocked(ep Epoch) *journal.EpochRecord {
	rec := &journal.EpochRecord{
		Version:    ep.Version,
		Guarantees: ep.Guarantees,
		TableBytes: ep.Bytes,
		Slots:      make([]journal.SlotConfig, 0, len(s.slots)),
	}
	for _, sl := range s.slots {
		rec.Slots = append(rec.Slots, journal.SlotConfig{
			Name:        sl.cfg.Name,
			UtilNum:     sl.cfg.Util.Num,
			UtilDen:     sl.cfg.Util.Den,
			LatencyGoal: sl.cfg.LatencyGoal,
			Capped:      sl.cfg.Capped,
			Active:      sl.active,
			BestEffort:  sl.cfg.Class == BE,
		})
	}
	for core, failed := range s.failed {
		if failed {
			rec.FailedCores = append(rec.FailedCores, core)
		}
	}
	return rec
}

// Close shuts the controller down: no further Flush is accepted, and
// the journal — if attached — is synced so every committed epoch is
// durable. Safe to call more than once.
func (c *Controller) Close() error {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if c.journal != nil && !alreadyClosed {
		return c.journal.Sync()
	}
	return nil
}

// Submit enqueues one operation. Safe from any goroutine; the op takes
// effect at the next Flush.
func (c *Controller) Submit(op Op) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, op)
}

// SubmitBatch enqueues ops in order.
func (c *Controller) SubmitBatch(ops []Op) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, ops...)
}

// Pending returns the queued-op count.
func (c *Controller) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// System returns the population the controller plans over. Recovery
// harnesses use it to rebind a machine to a recovered dispatcher.
func (c *Controller) System() *System {
	return c.sys
}

// Epoch returns the current installed epoch.
func (c *Controller) Epoch() Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// History returns the installed epochs in version order (the continuity
// oracle replays it against the trace).
func (c *Controller) History() []Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Epoch(nil), c.history...)
}

// ControllerStats returns the cumulative counters.
func (c *Controller) ControllerStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush drains the queue and applies it as one transactional batch,
// returning the transition (nil when the queue was empty). The protocol:
//
//  1. snapshot the population;
//  2. apply ops in arrival order, pre-checking utilization admission
//     after each op that adds utilization to the active population — an
//     inadmissible op is undone and rejected individually, the batch
//     continues;
//  3. one planner invocation for the whole batch. If planning fails
//     (placement can be infeasible past the utilization bound), shed
//     the most recent utilization-adding op and retry; when nothing is
//     left to shed, restore the snapshot — full rollback;
//  4. stage the table through the sink (adopted at a safe boundary by
//     the dispatcher's lock-free switch). A failed install also
//     restores the snapshot;
//  5. record the new epoch (version = table generation, monotonic).
//
// On an emergency (fail-stop) batch that rolls back, a staged table the
// sink has not begun adopting is withdrawn too: it was planned on the
// pre-failure topology, and the previous fully-adopted epoch is the one
// degraded mode must keep enacting.
//
// The error return equals Transition.Err: non-nil only when the batch
// rolled back. Individually rejected ops are not an error — callers
// inspect Transition.Rejected.
func (c *Controller) Flush() (*Transition, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("core: controller closed")
	}
	// mu is held until Flush returns, so nothing can be queued behind
	// the batch while it is being read: the queue keeps its array.
	ops := c.pending
	c.pending = c.pending[:0]
	if len(ops) == 0 {
		return nil, nil
	}
	c.stats.Flushes++
	c.stats.OpsCoalesced += int64(len(ops))

	s := c.sys
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := s.snapshotLocked()
	tr := &Transition{}
	reject := func(op Op, err error) {
		tr.Rejected = append(tr.Rejected, Rejection{Op: op, Err: err})
		c.stats.Rejections++
	}

	applied := make([]Op, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case OpFailCore:
			if err := s.markCoreFailedLocked(op.Core); err != nil {
				reject(op, err)
				continue
			}
			tr.Emergency = true
			applied = append(applied, op)
		case OpActivate:
			if op.Slot < 0 || op.Slot >= len(s.slots) {
				reject(op, fmt.Errorf("core: no VM slot %d", op.Slot))
				continue
			}
			// Undoing a rejected activation must restore the pre-op state,
			// not blindly deactivate: bursts can carry a redundant
			// activation of an already-admitted guest (and a degraded,
			// over-utilized host can fail admission for it), which must
			// not become a silent teardown.
			wasActive := s.slots[op.Slot].active
			s.slots[op.Slot].active = true
			if err := c.admitLocked(); err != nil {
				if shed := c.shedForLocked(op.Slot); len(shed) > 0 {
					applied = append(applied, shed...)
					applied = append(applied, op)
					continue
				}
				s.slots[op.Slot].active = wasActive
				reject(op, err)
				continue
			}
			applied = append(applied, op)
		case OpDeactivate:
			if err := s.setActiveLocked(op.Slot, false); err != nil {
				reject(op, err)
				continue
			}
			applied = append(applied, op)
		case OpReconfigure:
			if op.Slot < 0 || op.Slot >= len(s.slots) {
				reject(op, fmt.Errorf("core: no VM slot %d", op.Slot))
				continue
			}
			prev := s.slots[op.Slot].cfg
			if op.SetClass {
				s.slots[op.Slot].cfg.Class = op.Class
			}
			if err := s.reconfigureLocked(op.Slot, op.Util, op.LatencyGoal); err != nil {
				s.slots[op.Slot].cfg = prev
				reject(op, err)
				continue
			}
			// Reconfiguring an inactive slot leaves the active population
			// as it was, so there is nothing to admit and nobody to shed:
			// the activation that follows is where the new reservation
			// meets the all-or-nothing admission check.
			if !s.slots[op.Slot].active {
				applied = append(applied, op)
				continue
			}
			if err := c.admitLocked(); err != nil {
				if shed := c.shedForLocked(op.Slot); len(shed) > 0 {
					applied = append(applied, shed...)
					applied = append(applied, op)
					continue
				}
				s.slots[op.Slot].cfg = prev
				reject(op, err)
				continue
			}
			applied = append(applied, op)
		default:
			reject(op, fmt.Errorf("core: unknown op kind %d", op.Kind))
		}
	}
	if len(applied) == 0 {
		// Every op was refused individually: the population equals the
		// snapshot and the previous epoch stands; nothing to plan.
		return tr, nil
	}

	tbl, res, err := c.planOnceLocked(tr)
	for err != nil {
		// Admission passed but placement failed. Shed the most recent
		// utilization-adding op — best-effort subjects before latency-
		// sensitive ones — and retry with one fewer arrival.
		i := c.lastSheddableLocked(snap, applied)
		if i < 0 {
			break
		}
		op := applied[i]
		switch op.Kind {
		case OpActivate:
			_ = s.setActiveLocked(op.Slot, false)
		case OpReconfigure:
			s.slots[op.Slot].cfg = snap[op.Slot].cfg
		}
		applied = append(applied[:i], applied[i+1:]...)
		reject(op, err)
		if len(applied) == 0 {
			// Only shed ops remained: the population is back to the
			// snapshot and the previous epoch stands.
			return tr, nil
		}
		tbl, res, err = c.planOnceLocked(tr)
	}
	if err != nil {
		c.rollbackLocked(snap, tr, err)
		return tr, err
	}

	if perr := c.sink.PushTable(tbl); perr != nil {
		c.rollbackLocked(snap, tr, perr)
		return tr, perr
	}
	ep, eerr := epochOf(tbl, res.Guarantees, c.epoch)
	if eerr != nil {
		// Encoding a just-validated table cannot fail in practice; treat
		// it as an install failure for uniformity.
		c.rollbackLocked(snap, tr, eerr)
		return tr, eerr
	}
	if c.journal != nil {
		// The journal is the commit point: the record must be durable
		// before the epoch exists. The table just staged has not been
		// adopted (no sim time has passed since PushTable), so a failed
		// append withdraws it and rolls the whole batch back — the
		// journal and the epoch history never disagree.
		if jerr := c.journal.Append(c.sys.journalRecordLocked(ep)); jerr != nil {
			if a, ok := c.sink.(stagedAborter); ok {
				a.AbortStaged()
			}
			c.rollbackLocked(snap, tr, jerr)
			return tr, jerr
		}
	}
	c.epoch = ep
	c.history = append(c.history, ep)
	if max := c.MaxHistory; max > 0 {
		if max < 2 {
			max = 2
		}
		if drop := len(c.history) - max; drop > 0 {
			n := copy(c.history, c.history[drop:])
			clear(c.history[n:])
			c.history = c.history[:n]
		}
	}
	c.stats.Transitions++
	tr.Version = ep.Version
	tr.Committed = applied
	if c.Tracer != nil {
		var now int64
		if c.NowFn != nil {
			now = c.NowFn()
		}
		origin := trace.PlanOriginScratch
		switch {
		case res.FromCache:
			origin = trace.PlanOriginCached
		case res.Incremental:
			origin = trace.PlanOriginIncremental
		}
		c.Tracer.Emit(trace.EvPlanOrigin, -1, now, -1, origin, int64(res.PinnedCores))
	}
	return tr, nil
}

// planOnceLocked is one planner invocation with counters.
func (c *Controller) planOnceLocked(tr *Transition) (*table.Table, *planner.Result, error) {
	tr.PlannerCalls++
	c.stats.PlannerCalls++
	return c.sys.planLocked(c.PlanVia)
}

// rollbackLocked restores the snapshot and, for emergency batches,
// withdraws a staged table that never started adoption — it was planned
// before the fail-stop and must not supersede the last fully-adopted
// epoch. Core failure marks are facts and survive the rollback.
func (c *Controller) rollbackLocked(snap []slot, tr *Transition, err error) {
	c.sys.restoreLocked(snap)
	tr.RolledBack = true
	tr.Err = err
	c.stats.Rollbacks++
	if !tr.Emergency {
		return
	}
	if a, ok := c.sink.(stagedAborter); ok {
		if aborted := a.AbortStaged(); aborted != nil && aborted == c.epoch.Table {
			// The withdrawn table was the current (committed but never
			// adopted) epoch: revert to the predecessor it never replaced.
			if n := len(c.history); n >= 2 {
				c.history = c.history[:n-1]
				c.epoch = c.history[n-2]
				if c.journal != nil {
					// The withdrawn epoch's record is already durable, so
					// re-commit the reverted-to epoch verbatim: replay then
					// ends on the predecessor, matching the history.
					// Recovery keeps version monotonicity by resuming from
					// the journal's maximum version, not the last record's.
					// Best effort — if the append fails the journal is left
					// one (never-adopted) epoch ahead of the truth, which a
					// post-recovery emergency replan supersedes anyway.
					_ = c.journal.Append(c.sys.journalRecordLocked(c.epoch))
				}
			}
		}
	}
}

// admitLocked runs the planner's exact utilization admission check for
// the active population on the surviving cores.
func (c *Controller) admitLocked() error {
	specs, _ := c.sys.activeSpecsLocked()
	online := c.sys.onlineCoresLocked()
	if len(online) == 0 {
		return fmt.Errorf("core: every core has failed")
	}
	return planner.Admit(specs, len(online))
}

// admitLSLocked checks whether the latency-sensitive subpopulation
// alone fits the surviving cores — the gate that decides whether
// shedding best-effort guests can save an LS admission.
func (c *Controller) admitLSLocked() error {
	specs, _ := c.sys.activeSpecsLocked()
	online := c.sys.onlineCoresLocked()
	if len(online) == 0 {
		return fmt.Errorf("core: every core has failed")
	}
	return planner.AdmitLS(specs, len(online))
}

// shedForLocked makes room for the latency-sensitive guest in slot
// keep by shedding best-effort guests: active BE slots are deactivated
// (highest id first — the youngest arrivals) until the population
// admits again. Each victim becomes a committed, journaled
// OpDeactivate (Shed: true) in the installed epoch — never a silent
// eviction. Shedding is gated on planner.AdmitLS: it only proceeds
// when the LS guarantees alone are admissible, so an LS admission can
// displace BE slack but never another LS guarantee. BE subjects never
// shed anyone. Returns nil — with every victim restored — when
// shedding cannot save the admission.
//
// UnsafeShedLSFirst inverts the victim class: LS guests are shed while
// BE guests keep running, the defect the class-continuity oracle must
// convict.
func (c *Controller) shedForLocked(keep int) []Op {
	s := c.sys
	if keep < 0 || keep >= len(s.slots) || s.slots[keep].cfg.Class != LS {
		return nil
	}
	if c.admitLSLocked() != nil {
		return nil
	}
	victim := BE
	if c.UnsafeShedLSFirst {
		victim = LS
	}
	var shed []Op
	for id := len(s.slots) - 1; id >= 0; id-- {
		if id == keep || !s.slots[id].active || s.slots[id].cfg.Class != victim {
			continue
		}
		s.slots[id].active = false
		shed = append(shed, Op{Kind: OpDeactivate, Slot: id, Shed: true})
		if c.admitLocked() == nil {
			return shed
		}
	}
	for _, op := range shed {
		s.slots[op.Slot].active = true
	}
	return nil
}

// lastSheddableLocked returns the index of the utilization-adding op
// the plan-failure retry loop should shed next: the most recent one
// with a best-effort subject, falling back to the most recent one of
// any class. UnsafeShedLSFirst inverts the class preference.
//
// An OpActivate qualifies only if its slot was inactive at the batch
// snapshot: shedding an activation deactivates the slot, and a
// redundant activation of an already-admitted guest (bursts can carry
// them) must not turn into a teardown the epoch never committed.
func (c *Controller) lastSheddableLocked(snap []slot, ops []Op) int {
	prefer := BE
	if c.UnsafeShedLSFirst {
		prefer = LS
	}
	sheddable := func(op Op) bool {
		if op.Slot < 0 || op.Slot >= len(c.sys.slots) {
			return false
		}
		switch op.Kind {
		case OpActivate:
			return op.Slot >= len(snap) || !snap[op.Slot].active
		case OpReconfigure:
			return true
		}
		return false
	}
	fallback := -1
	for i := len(ops) - 1; i >= 0; i-- {
		if !sheddable(ops[i]) {
			continue
		}
		if fallback < 0 {
			fallback = i
		}
		if c.sys.slots[ops[i].Slot].cfg.Class == prefer {
			return i
		}
	}
	return fallback
}
