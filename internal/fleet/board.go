package fleet

import "sync/atomic"

// cell is one host's entry on the arbiter's headroom board: the fields
// a placer decides from — committed version, advisory headroom, failure
// state and pool — in fixed-size atomics, so the board is one dense,
// pointer-free slice that readers scan without taking any host lock.
//
// The owning Host is the only writer and stores while holding its lock
// (Host.publishLocked), so stores to one cell never race each other.
// Readers load the three words one by one and may see a torn cell. The
// writer stores headroom before version and readers load version
// before headroom, so the tear only goes one way: headroom at least as
// new as the version beside it. A commit naming that version then
// either loses (the host moved on: ErrConflict) or was decided on
// exactly the host's current headroom. And nothing rests on even that:
// headroom is advisory, CommitPlacements re-checks the version and runs
// admission under the host lock, so a decision from a torn or stale
// cell can at worst lose (ErrConflict, ErrHostDown, a reject) and
// retry — never commit something the host would not have admitted.
type cell struct {
	version atomic.Uint64
	freePPM atomic.Int64
	// meta packs freeSlots<<metaSlotShift | state<<metaStateShift | spare,
	// so the eligibility half of a pick is a single load.
	meta atomic.Uint64
}

const (
	metaSpare      = 1
	metaStateShift = 1
	metaStateMask  = 0x7
	metaSlotShift  = 4
)

func packMeta(freeSlots int, state HostState, spare bool) uint64 {
	m := uint64(freeSlots)<<metaSlotShift | uint64(state)<<metaStateShift
	if spare {
		m |= metaSpare
	}
	return m
}

func metaState(m uint64) HostState { return HostState(m >> metaStateShift & metaStateMask) }

// hostView is what a pick reads for one host: a plain copy of its
// cell, or — inside a PlaceBatch round — the round's frozen copy under
// a placer's virtual decrements. version is the one a commit decided
// from this view must name. (Three words, so it lives in registers.)
type hostView struct {
	version uint64
	freePPM int64
	meta    uint64
}

func (v hostView) freeSlots() int   { return int(v.meta >> metaSlotShift) }
func (v hostView) state() HostState { return metaState(v.meta) }
func (v hostView) spare() bool      { return v.meta&metaSpare != 0 }

// open reports whether the host takes traffic at all: Up, with a free
// slot.
func (v hostView) open() bool { return v.state() == HostUp && v.freeSlots() > 0 }

// view copies the cell. The version is read first and published last,
// so the headroom is never older than the version beside it.
func (c *cell) view() hostView {
	ver := c.version.Load()
	return hostView{version: ver, meta: c.meta.Load(), freePPM: c.freePPM.Load()}
}

// headroom is what one pick reads: the live board in place (Place), or a
// PlaceBatch round's frozen views with this placer's virtual decrements
// layered over them. The frozen slice is shared by every placer of the
// round and never written; a placer's own decisions live in mine, keyed
// by host, so P placers cost one copy of the board, not P.
type headroom struct {
	cells  []cell
	frozen []hostView       // nil: read cells live
	mine   map[int]hostView // this placer's decremented hosts (batch only)
}

func (r *headroom) at(h int) hostView {
	if r.frozen == nil {
		return r.cells[h].view()
	}
	if len(r.mine) != 0 {
		if v, ok := r.mine[h]; ok {
			return v
		}
	}
	return r.frozen[h]
}

// take records a batch placer's decision on host h — just picked, so
// it has a free slot to give — as a virtual decrement over the frozen
// view.
func (r *headroom) take(h int, vm VM) {
	v := r.at(h)
	v.meta -= 1 << metaSlotShift
	v.freePPM -= vm.ppm()
	if r.mine == nil {
		r.mine = make(map[int]hostView)
	}
	r.mine[h] = v
}

// bestOf is the running worst-fit winner of one pool during a scan:
// most free reserved headroom, ties to the lowest id (hosts are visited
// in ascending id and only a strictly larger headroom displaces). The
// winner's view is kept as read, so the caller commits against the
// version it decided from.
type bestOf struct {
	host int
	view hostView
}

func noHost() bestOf { return bestOf{host: -1, view: hostView{freePPM: -1}} }

// offer considers host h, already known to be up with a free slot.
// The ban list is consulted last, and only for a host that would win.
func (b *bestOf) offer(h int, v hostView, banned []int) {
	if v.freePPM <= b.view.freePPM {
		return
	}
	for _, x := range banned {
		if x == h {
			return
		}
	}
	b.host, b.view = h, v
}

// pick chooses a target host for pd, worst-fit (most free reserved
// headroom, ties to the lowest id) so load spreads, in this order:
//  1. home-partition regular hosts the headroom says fit,
//  2. any regular host that fits (the cross-partition fallback — where
//     placers meet and conflicts happen),
//  3. the spare pool, for VMs already rejected somewhere,
//  4. the pressure valve: the emptiest unbanned host even though the
//     advisory headroom says it won't fit — the host's admission check
//     is the authoritative gate, and near-full fleets must probe it
//     rather than give up on an estimate — regular pool first, then,
//     for VMs already rejected somewhere, the spare pool.
//
// The home partition is visited by striding placer, placer+P, … — in
// the common case the only cells read. Only on a home miss does one
// sweep of the whole board run, and it settles every later step at
// once: worst-fit picks a pool's roomiest eligible host whether or not
// it must fit, so "the best that fits" is "the best, if it fits" and
// one running winner per pool answers both questions.
//
// Only Up hosts with a free slot and non-negative headroom are
// eligible; down and dead hosts take no traffic. Returns the host and
// the view it was chosen from, or -1 when no unbanned host qualifies.
func pick(r *headroom, pd *pend, placer, placers int) (int, hostView) {
	need := pd.vm.ppm()
	n := len(r.cells)

	home := noHost()
	for h := placer; h < n; h += placers {
		v := r.at(h)
		if v.open() && !v.spare() && v.freePPM >= need {
			home.offer(h, v, pd.banned)
		}
	}
	if home.host >= 0 {
		return home.host, home.view
	}

	regular, spare := noHost(), noHost()
	for h := 0; h < n; h++ {
		v := r.at(h)
		switch {
		case !v.open():
		case v.spare():
			if pd.spareOK {
				spare.offer(h, v, pd.banned)
			}
		default:
			regular.offer(h, v, pd.banned)
		}
	}
	switch {
	case regular.host >= 0 && regular.view.freePPM >= need:
		return regular.host, regular.view
	case spare.host >= 0 && spare.view.freePPM >= need:
		return spare.host, spare.view
	case regular.host >= 0:
		return regular.host, regular.view
	default:
		return spare.host, spare.view
	}
}
