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
// Generation and increases monotonically. Bytes is the table's wire
// encoding, and it exists exactly where a journal needs it: on a
// journaled controller, live or recovered, the current epoch carries it
// (a full journal record is made of it, and the next epoch's encode
// copies its unchanged segments) and drops it once superseded, while an
// unjournaled controller encodes nothing. A reader that compares epochs
// bit for bit encodes on demand (Encoded).
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
	Compactions  int64 // journal compactions (records dropped behind the ring)
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

	// MaxHistory bounds the retained epoch history. Every committed
	// epoch holds a full table, so an unbounded
	// history grows the live heap linearly with churn on a long-lived
	// host. When positive, only the newest MaxHistory epochs are kept
	// (never fewer than 2, so the emergency-rollback predecessor stays
	// reachable), and an attached journal whose store can compact
	// (journal.Compactor) is kept to the records that rebuild that ring
	// (journaledLocked). Zero, the default, keeps every epoch and every
	// record: right for a controller that lives as long as a test or a
	// scenario, not for a host — fleet hosts run a ring of 2, the
	// benchmark's dense host 64. Set before the first Flush.
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
	// journaled lists the records the journal holds, oldest first —
	// what compaction needs to find its cut. It is kept only when the
	// journal's store can compact (nil otherwise), and starts full.
	journaled []journaledRecord
	// delta is the buffer appendLocked encodes a table delta into, made
	// with the first (a pointer: unjournaled controllers pay 8 bytes).
	delta *[]byte

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
		ep := Epoch{Version: initial.Table.Generation, Table: initial.Table, Guarantees: slices.Clone(initial.Guarantees)}
		c.epoch = ep
		c.history = append(c.history, ep)
	}
	return c, nil
}

// journaledRecord is a record of a compacting journal: its version,
// and whether it is full.
type journaledRecord struct {
	version uint64
	full    bool
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

// Encoded returns ep with its wire bytes: ep itself when it carries them,
// otherwise ep with a full encode of its table.
func (ep Epoch) Encoded() (Epoch, error) {
	if ep.Bytes != nil {
		return ep, nil
	}
	return epochOf(ep.Table, ep.Guarantees, Epoch{})
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
	// The baseline record is the first reader of the current epoch's
	// bytes; the epoch keeps them for the next encode to copy from.
	ep, err := c.epoch.Encoded()
	if err != nil {
		return err
	}
	if err := w.Append(c.sys.journalRecordLocked(ep)); err != nil {
		return err
	}
	c.epoch = ep
	c.history[len(c.history)-1] = ep
	c.journal = w
	c.journaled = nil
	if w.CanCompact() {
		c.journaled = append(c.journaled, journaledRecord{c.epoch.Version, true})
	}
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
//  2. apply ops in arrival order, pre-checking admission (admitLocked)
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
			if err := c.sys.admitLocked(false); err != nil {
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
			if err := c.sys.admitLocked(false); err != nil {
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
	ep := Epoch{Version: tbl.Generation, Table: tbl, Guarantees: res.Guarantees}
	full := false
	if c.journal != nil {
		// Only the journal reads an epoch's bytes, so only a journaled
		// controller encodes. Names were bounded when their VMs were
		// added, so encoding a just-validated table cannot fail in
		// practice; treat it as an install failure for uniformity.
		//
		// The journal is the commit point: the record must be durable
		// before the epoch exists. The table just staged has not been
		// adopted (no sim time has passed since PushTable), so a failed
		// encode or append withdraws it and rolls the whole batch back —
		// the journal and the epoch history never disagree.
		var jerr error
		if ep, jerr = epochOf(tbl, res.Guarantees, c.epoch); jerr == nil {
			full, jerr = c.appendLocked(ep, false)
		}
		if jerr != nil {
			if a, ok := c.sink.(stagedAborter); ok {
				a.AbortStaged()
			}
			c.rollbackLocked(snap, tr, jerr)
			return tr, jerr
		}
	}
	if n := len(c.history); n > 0 {
		// The superseded epoch's bytes have no reader left.
		c.history[n-1].Bytes = nil
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
	c.journaledLocked(ep.Version, full)
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
					// re-commit the reverted-to epoch verbatim (in full): replay then
					// ends on the predecessor, matching the history.
					// Recovery keeps version monotonicity by resuming from
					// the journal's maximum version, not the last record's.
					// Best effort — if the append fails the journal is left
					// one (never-adopted) epoch ahead of the truth, which a
					// post-recovery emergency replan supersedes anyway.
					if ep, err := c.epoch.Encoded(); err == nil {
						c.epoch = ep
						c.history[len(c.history)-1] = ep
						if _, err := c.appendLocked(ep, true); err == nil {
							c.journaledLocked(ep.Version, true)
						}
					}
				}
			}
		}
	}
}

// appendLocked journals ep, the epoch after c.epoch (or c.epoch itself,
// re-committed), and reports whether the record is full. It is a delta
// against c.epoch when the writer last appended c.epoch's own record,
// unless full is set or a checkpoint is due: a compacting journal under
// a bounded ring gets a full record every max(MaxHistory, 2) records, so
// that compaction has one to cut at.
func (c *Controller) appendLocked(ep Epoch, full bool) (bool, error) {
	rec := c.sys.journalRecordLocked(ep)
	last := len(c.journaled) - 1
	for last > 0 && !c.journaled[last].full {
		last--
	}
	full = full || !deltaRecords || c.MaxHistory > 0 && len(c.journaled)-last >= max(c.MaxHistory, 2)
	if v, ok := c.journal.Last(); ok && v == c.epoch.Version && !full {
		if c.delta == nil {
			c.delta = new([]byte)
		}
		delta, err := ep.Table.AppendEncodedDelta((*c.delta)[:0], c.epoch.Table)
		if err != nil {
			return false, fmt.Errorf("core: encoding epoch %d's delta: %w", ep.Version, err)
		}
		*c.delta = delta
		rec.Base, rec.TableDelta, rec.TableBytes = c.epoch.Version, delta, nil
	}
	return rec.TableDelta == nil, c.journal.Append(rec)
}

// deltaRecords lets appendLocked write deltas; the tests turn it off
// (export_test.go) to check that full records recover the same.
var deltaRecords = true

// journaledLocked notes that the journal now ends with a record of
// version v, full or a delta, and, under a bounded ring, compacts it
// once it holds more than twice the ring's worth of records: every
// record before the newest full one at or before the record that first
// carried the epoch just below the ring is dropped, so the kept suffix
// starts full. Versions only grow except where a rollback re-commits an
// older epoch, so that cut keeps every record from then on — the newest,
// and the one with the maximum version Recover resumes numbering from —
// and the kept suffix folds to the same ring the whole journal folds
// to. The margin epoch below the ring is what keeps that true across an
// emergency rollback: its re-commit pops the ring's top, and replay then
// reaches one epoch deeper. A failed compaction only leaves the journal
// longer; the epoch that got here is already committed.
func (c *Controller) journaledLocked(v uint64, full bool) {
	if c.journaled == nil || c.MaxHistory <= 0 {
		return
	}
	c.journaled = append(c.journaled, journaledRecord{v, full})
	if len(c.journaled) <= 2*max(c.MaxHistory, 2) {
		return
	}
	// A record survives replay's fold when every later record carries a
	// greater version; walking newest first, the first survivor below the
	// ring's oldest epoch is the epoch just below the ring.
	oldest, below, later := c.history[0].Version, uint64(0), ^uint64(0)
	for i := len(c.journaled) - 1; i >= 0; i-- {
		if jv := c.journaled[i].version; jv < later {
			if jv < oldest {
				below = jv
				break
			}
			later = jv
		}
	}
	n := 0
	for n < len(c.journaled) && c.journaled[n].version < below {
		n++
	}
	for n > 0 && !c.journaled[n].full {
		n--
	}
	if n == 0 || c.journal.Compact(n) != nil {
		return
	}
	c.journaled = c.journaled[:copy(c.journaled, c.journaled[n:])]
	c.stats.Compactions++
}

// shedClass is the class shedding takes first, in an overloaded LS
// admission (shedForLocked) and in the plan-failure retry
// (lastSheddableLocked). The tests invert it (export_test.go) to check
// that the class-continuity oracle convicts LS guests shed while BE
// guests keep running.
var shedClass = BE

// shedForLocked makes room for the latency-sensitive guest in slot
// keep by shedding best-effort guests: active BE slots are deactivated
// (highest id first — the youngest arrivals) until the population
// admits again. Each victim becomes a committed, journaled
// OpDeactivate (Shed: true) in the installed epoch — never a silent
// eviction. Shedding is gated on the LS-only admission check
// (admitLocked(true)): it only proceeds when the LS guarantees alone are
// admissible, so an LS admission can displace BE slack but never
// another LS guarantee. BE subjects never shed anyone. Returns nil —
// with every victim restored — when shedding cannot save the admission.
func (c *Controller) shedForLocked(keep int) []Op {
	s := c.sys
	if keep < 0 || keep >= len(s.slots) || s.slots[keep].cfg.Class != LS {
		return nil
	}
	if c.sys.admitLocked(true) != nil {
		return nil
	}
	var shed []Op
	for id := len(s.slots) - 1; id >= 0; id-- {
		if id == keep || !s.slots[id].active || s.slots[id].cfg.Class != shedClass {
			continue
		}
		s.slots[id].active = false
		shed = append(shed, Op{Kind: OpDeactivate, Slot: id, Shed: true})
		if c.sys.admitLocked(false) == nil {
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
// any class.
//
// An OpActivate qualifies only if its slot was inactive at the batch
// snapshot: shedding an activation deactivates the slot, and a
// redundant activation of an already-admitted guest (bursts can carry
// them) must not turn into a teardown the epoch never committed.
func (c *Controller) lastSheddableLocked(snap []slot, ops []Op) int {
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
		if c.sys.slots[ops[i].Slot].cfg.Class == shedClass {
			return i
		}
	}
	return fallback
}
