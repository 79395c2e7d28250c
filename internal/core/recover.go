package core

import (
	"fmt"

	"tableau/internal/dispatch"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// This file is the crash-recovery half of the durable epoch journal:
// Recover replays a journal.Store image and rebuilds the control plane
// — population, epoch ring, and a dispatcher enacting the last
// committed table — exactly as the pre-crash controller left them. A
// torn or corrupt tail (a crashed append, a bit flip) is detected by
// the per-record CRC, cut back to the last intact record, and the host
// resumes from the last good epoch; when requested, an admission-gated
// emergency replan immediately supersedes it so a population change
// lost with the tail is re-derived rather than silently forgotten.

// RecoverOptions configures a Recover. The planner and dispatch
// configuration are not journaled (they are code/config, not state), so
// the caller supplies the same options the pre-crash host ran with.
type RecoverOptions struct {
	// Planner is the planner configuration of the pre-crash system.
	Planner planner.Options
	// Dispatch is the dispatcher configuration.
	Dispatch dispatch.Options
	// MaxHistory bounds the rebuilt epoch ring exactly like
	// Controller.MaxHistory (0 retains every replayed epoch).
	MaxHistory int
	// Incremental re-arms System.Incremental on the rebuilt system. The
	// previous plan itself is not journaled (it lives in the planner
	// universe), so the first post-recovery plan is a full one; later
	// plans run incrementally again.
	Incremental bool
	// ReplanTorn, when the journal tail was torn or corrupt, replans the
	// recovered population immediately and commits the result as a fresh
	// epoch — the batch lost with the tail may have been reacting to
	// something (the planner's admission check still gates it, exactly
	// like any emergency replan). A replan failure is reported, not
	// fatal: the controller stays on the last good epoch.
	ReplanTorn bool
	// Sink, when non-nil, is installed as the rebuilt controller's table
	// sink instead of a fresh dispatcher (the fleet's hosts own their
	// sinks). Recover then returns a nil Dispatcher.
	Sink TableSink
}

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	// Replayed is the number of intact journal records replayed.
	Replayed int
	// TruncatedBytes is the torn/corrupt tail length cut from the store
	// (0 for a clean journal).
	TruncatedBytes int
	// TailErr is why the tail was cut (nil for a clean journal).
	TailErr error
	// RecoveredVersion and RecoveredBytes identify the epoch the
	// controller resumed on: the last intact record's version and table
	// encoding (the recovery-equivalence oracle compares these
	// bit-for-bit against the pre-crash ground truth).
	RecoveredVersion uint64
	RecoveredBytes   []byte
	// Slots is the population snapshot of that record — every slot of the
	// pre-crash system, spares included, with the activation the journal
	// holds. A host reconciling its own bookkeeping against the journal
	// (fleet.Host) reads it here instead of replaying the image again.
	Slots []journal.SlotConfig
	// Replanned reports that ReplanTorn committed a fresh epoch on top
	// of the recovered one; ReplanErr is why it could not (admission
	// failure on a degraded topology, or an empty population).
	Replanned bool
	ReplanErr error
}

// Recover rebuilds a Controller and Dispatcher from a journal store.
// The store's image is replayed record by record: the population
// snapshot of the last intact record rebuilds the System (every slot
// re-registered in order — slot ids are vCPU ids, fixed at machine
// start — activation and failed-core marks restored), the retained
// records rebuild the epoch history, and the dispatcher starts out
// enacting the recovered epoch's table. A torn or corrupt tail is
// truncated from the store before the journal is re-attached, so new
// epochs append after the last intact record.
//
// It is one pass over the image. The replayed records alias it; the
// kept epochs are decoded oldest to newest, each sharing with its
// predecessor the cores whose wire segments did not change
// (table.DecodeBytesSharing) — what the live ring shares through the
// incremental planner, the recovered ring shares too — and each kept
// epoch's table bytes are copied exactly once, into the ring: an epoch
// that aliased the image would pin all of it for as long as it
// survives. Epochs dropped by MaxHistory are neither decoded nor
// copied. Every table is still decoded here, in full and checked, so a
// record that passes its CRC but holds an undecodable table fails
// Recover rather than a later History reader.
//
// The returned controller owns the store (via its journal writer):
// every post-recovery Flush appends to the same journal, and a second
// crash replays both halves.
func Recover(store journal.Store, opts RecoverOptions) (*Controller, *dispatch.Dispatcher, *RecoveryReport, error) {
	image, err := store.Load()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: loading journal: %w", err)
	}
	rep, err := journal.DecodeAll(image)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: replaying journal: %w", err)
	}
	if len(rep.Records) == 0 {
		return nil, nil, nil, fmt.Errorf("core: journal holds no committed epoch (tail: %v)", rep.TailErr)
	}
	report := &RecoveryReport{
		Replayed:       len(rep.Records),
		TruncatedBytes: rep.Truncated,
		TailErr:        rep.TailErr,
	}
	if rep.Truncated > 0 {
		// Cut the dead tail before anything appends: a new record landing
		// after torn bytes would be unreachable on the next replay.
		if err := store.Truncate(int64(rep.Good)); err != nil {
			return nil, nil, nil, fmt.Errorf("core: truncating torn journal tail: %w", err)
		}
	}

	// Fold the replayed records into the epoch sequence the live
	// controller held (rollback re-commits pop their superseded tops),
	// bounded like the live controller's ring.
	keep := journal.FoldEpochs(rep.Records)
	var maxVersion uint64
	for _, rec := range rep.Records {
		if rec.Version > maxVersion {
			maxVersion = rec.Version
		}
	}
	if max := opts.MaxHistory; max > 0 {
		if max < 2 {
			max = 2
		}
		if len(keep) > max {
			keep = keep[len(keep)-max:]
		}
	}
	history := make([]Epoch, 0, len(keep))
	var prev Epoch
	for _, rec := range keep {
		tbl, err := table.DecodeBytesSharing(rec.TableBytes, prev.Table, prev.Bytes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: decoding replayed epoch %d: %w", rec.Version, err)
		}
		// The replay is dropped when Recover returns, so the epoch takes
		// the record's guarantees over; the bytes it copies out of the image.
		prev = Epoch{
			Version:    rec.Version,
			Table:      tbl,
			Guarantees: rec.Guarantees,
			Bytes:      append([]byte(nil), rec.TableBytes...),
		}
		history = append(history, prev)
	}
	last := keep[len(keep)-1]
	report.RecoveredVersion = last.Version
	report.RecoveredBytes = append([]byte(nil), last.TableBytes...)
	report.Slots = last.Slots

	// Rebuild the population from the last record's snapshot.
	sys := NewSystem(len(prev.Table.Cores), opts.Planner, opts.Dispatch)
	sys.Incremental = opts.Incremental
	for i, sc := range last.Slots {
		class := LS
		if sc.BestEffort {
			class = BE
		}
		id, err := sys.AddVM(VMConfig{
			Name:        sc.Name,
			Util:        Util{Num: sc.UtilNum, Den: sc.UtilDen},
			LatencyGoal: sc.LatencyGoal,
			Capped:      sc.Capped,
			Class:       class,
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: re-registering slot %d (%q): %w", i, sc.Name, err)
		}
		if !sc.Active {
			_ = sys.SetActive(id, false)
		}
	}
	for _, c := range last.FailedCores {
		if err := sys.MarkCoreFailed(c); err != nil {
			return nil, nil, nil, fmt.Errorf("core: re-marking failed core %d: %w", c, err)
		}
	}
	// Resume version numbering past everything the journal ever carried,
	// including epochs a rollback later withdrew: versions stay
	// monotonic across the crash.
	sys.mu.Lock()
	sys.generation = maxVersion
	sys.mu.Unlock()

	w := journal.NewWriter(store)
	if opts.ReplanTorn && report.TailErr != nil {
		// The batch lost with the torn tail may have been reacting to
		// something: replan the recovered population immediately (the
		// planner's admission check gates it) and commit the result
		// through the journal like any epoch. No machine is attached yet,
		// so there is no staged-adoption dance — the dispatcher below
		// simply starts out on the replanned table. A replan failure is
		// reported, not fatal: the last good epoch stands.
		ep, err := replanRecovered(sys, w)
		if err != nil {
			report.ReplanErr = err
		} else {
			report.Replanned = true
			history = append(history, ep)
			if max := opts.MaxHistory; max > 0 && len(history) > max && len(history) > 2 {
				history = history[1:]
			}
		}
	}

	cur := history[len(history)-1]
	var d *dispatch.Dispatcher
	sink := opts.Sink
	if sink == nil {
		d = dispatch.New(cur.Table, opts.Dispatch)
		sink = d
	}
	c := &Controller{
		sys:        sys,
		sink:       sink,
		epoch:      cur,
		history:    history,
		MaxHistory: opts.MaxHistory,
		journal:    w,
	}
	return c, d, report, nil
}

// replanRecovered plans one fresh epoch for the recovered population
// and journals it — the commit point, exactly as in Flush.
func replanRecovered(sys *System, w *journal.Writer) (Epoch, error) {
	tbl, res, err := sys.Plan()
	if err != nil {
		return Epoch{}, err
	}
	ep, err := epochOf(tbl, res.Guarantees, Epoch{})
	if err != nil {
		return Epoch{}, err
	}
	sys.mu.Lock()
	rec := sys.journalRecordLocked(ep)
	sys.mu.Unlock()
	if err := w.Append(rec); err != nil {
		return Epoch{}, err
	}
	return ep, nil
}
