package dispatch

import (
	"errors"
	"sync/atomic"

	"tableau/internal/table"
)

// SwitchBoard is a faithful, concurrent implementation of Tableau's
// lock-free table-switch protocol (paper Sec. 6): no locks or barriers
// appear on the dispatcher hot path. Each core holds a private pointer
// to the table it enacts; the planner publishes a staged table together
// with an activation cycle chosen away from any wrap boundary (the
// "middle of the next round" rule), and every core adopts the new table
// the first time it looks past that boundary. Because the activation
// cycle is strictly in the future for every core, no core can observe a
// half-installed switch.
//
// The simulator's Dispatcher uses equivalent single-threaded logic; this
// type exists so the protocol itself runs and is tested under the Go
// race detector with real core-parallel readers.
type SwitchBoard struct {
	coreTables []atomic.Pointer[table.Table]

	staged   atomic.Pointer[table.Table]
	activate atomic.Int64 // cycle index at which staged takes effect
	adopted  atomic.Int32 // cores that moved to the staged generation

	activeLen atomic.Int64 // length of the currently active table

	// failed marks fail-stopped cores: they never call TableFor again,
	// so MarkFailed and Push adopt staged tables on their behalf to keep
	// the adoption quorum (== all cores) reachable.
	failed []atomic.Bool

	// adoptPause, when non-nil, runs inside adopt's load-to-CAS window.
	// Test-only: it lets a single-threaded test interleave the other
	// party's adoption exactly where a parallel machine could.
	adoptPause func(core int)
}

// ErrSwitchPending is returned by Push while a previous switch has not
// yet been adopted by every core.
var ErrSwitchPending = errors.New("dispatch: a table switch is already pending")

// NewSwitchBoard creates a switch board for ncores cores, all initially
// enacting tbl.
func NewSwitchBoard(ncores int, tbl *table.Table) *SwitchBoard {
	s := &SwitchBoard{
		coreTables: make([]atomic.Pointer[table.Table], ncores),
		failed:     make([]atomic.Bool, ncores),
	}
	for i := range s.coreTables {
		s.coreTables[i].Store(tbl)
	}
	s.activeLen.Store(tbl.Len)
	return s
}

// Push stages tbl for adoption. now is the current time; the activation
// cycle is the next wrap if the current position is in the first half of
// the cycle, and the wrap after that otherwise, so that the staged
// pointer is never read concurrently with a wrap that could race it.
// It returns the chosen activation cycle index.
func (s *SwitchBoard) Push(tbl *table.Table, now int64) (int64, error) {
	if s.staged.Load() != nil {
		return 0, ErrSwitchPending
	}
	l := s.activeLen.Load()
	cycle := now / l
	pos := now % l
	at := cycle + 1
	if pos >= l/2 {
		at = cycle + 2
	}
	s.adopted.Store(0)
	// Publish order matters: a reader acts on the activation cycle only
	// once it sees a staged table, so the cycle must be in place first.
	// Staged first would let a reader pair the new table with the
	// previous switch's (long past) activation cycle and adopt it before
	// its boundary. Go atomics are sequentially consistent, so storing
	// activate first suffices.
	s.activate.Store(at)
	s.staged.Store(tbl)
	// Fail-stopped cores will never cross the activation boundary
	// themselves; adopt on their behalf so the quorum stays reachable.
	for c := range s.coreTables {
		if s.failed[c].Load() {
			s.adopt(c, tbl)
		}
	}
	return at, nil
}

// MarkFailed records the fail-stop of core. If a switch is pending and
// the dead core has not adopted the staged table, the board adopts on
// its behalf so the switch can still complete. Control-plane calls
// (Push, MarkFailed) must be serialized by the caller — they come from
// the single planning daemon — while TableFor stays safe to call
// concurrently from every core.
func (s *SwitchBoard) MarkFailed(core int) {
	if s.failed[core].Swap(true) {
		return
	}
	if staged := s.staged.Load(); staged != nil {
		s.adopt(core, staged)
	}
}

// Failed reports whether core has been marked fail-stopped.
func (s *SwitchBoard) Failed(core int) bool { return s.failed[core].Load() }

// adopt moves core onto the staged table and counts it toward the
// adoption quorum, exactly once per core per generation. MarkFailed's
// adopt-on-behalf races the core's own in-flight TableFor (the machine
// tears a core down asynchronously from the control plane), so the
// pointer flip must be a compare-and-swap: a plain load-check-store
// pair lets both parties observe the pre-switch table and both
// increment adopted, retiring the staged generation before every core
// has actually moved — the survivors that never adopted are then
// stranded on the old table forever. The CAS loses to whichever party
// flipped the pointer first and reports false without counting.
func (s *SwitchBoard) adopt(core int, staged *table.Table) bool {
	for {
		cur := s.coreTables[core].Load()
		if cur == staged {
			return false // already adopted (possibly by the racing party)
		}
		if h := s.adoptPause; h != nil {
			h(core)
		}
		if s.coreTables[core].CompareAndSwap(cur, staged) {
			if int(s.adopted.Add(1)) == len(s.coreTables) {
				s.activeLen.Store(staged.Len)
				s.staged.Store(nil)
			}
			return true
		}
	}
}

// TableFor returns the table core should enact at time now. It is the
// lock-free hot path: two atomic loads in the common case.
func (s *SwitchBoard) TableFor(core int, now int64) *table.Table {
	cur := s.coreTables[core].Load()
	staged := s.staged.Load()
	if staged == nil || staged == cur {
		return cur
	}
	if now/s.activeLen.Load() < s.activate.Load() {
		return cur
	}
	// Cross the activation boundary: adopt. The last adopter retires the
	// old generation ("two rounds after a new table has been uploaded,
	// the previous table is garbage-collected") — here the GC is letting
	// the old pointer drop; the new table's length becomes authoritative.
	s.adopt(core, staged)
	return staged
}

// Pending reports whether a staged table has not yet been fully adopted.
func (s *SwitchBoard) Pending() bool { return s.staged.Load() != nil }
