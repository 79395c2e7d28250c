package table

import (
	"fmt"
	"slices"
)

// Index is a table's slice index (paper Sec. 6, Fig. 2), the structure
// that bounds a dispatcher lookup to two allocation records. Each core
// is cut into slices as long as its shortest allocation, so any slice
// overlaps at most two allocations, and each slice has one entry: the
// position in the core's allocation list of the first allocation that
// overlaps it, or the list's length when the slice is entirely idle.
//
// The index is derived from a table's allocation lists and has one
// reader, the installer that enacts the table: it is built beside the
// table, never written into it. An Index is immutable once built.
type Index struct {
	cores []coreIndex
}

type coreIndex struct {
	sliceLen int64   // the core's shortest allocation; 0 for an empty core
	entries  []int32 // one per slice of sliceLen ns
}

// MaxSlicesPerCore bounds the slice index an installer builds per core:
// a table that would need more entries on some core is refused by the
// planner that generates it, by core.System's remap of a planning
// backend's table, and by the decoder.
const MaxSlicesPerCore = 4 << 20

// shortestAlloc returns the length of the shortest allocation in as, 0
// for an empty list.
func shortestAlloc(as []Alloc) int64 {
	if len(as) == 0 {
		return 0
	}
	shortest := as[0].Len()
	for _, a := range as[1:] {
		shortest = min(shortest, a.Len())
	}
	return shortest
}

// coreSlices returns the slice length and slice count of one core of a
// table of length tlen: ⌈tlen/shortest⌉ slices of the shortest
// allocation's length, none for an empty core (or an allocation list no
// valid table holds).
func coreSlices(as []Alloc, tlen int64) (sliceLen, n int64) {
	sliceLen = shortestAlloc(as)
	if sliceLen <= 0 || tlen <= 0 {
		return 0, 0
	}
	return sliceLen, (tlen + sliceLen - 1) / sliceLen
}

// CheckSliceBound reports an error naming the first core whose index
// would need more than MaxSlicesPerCore entries: the guard against a
// short allocation in a long table blowing up the installer's memory. It
// is arithmetic and allocates nothing.
func (t *Table) CheckSliceBound() error {
	return t.checkSliceBound(nil)
}

// checkSliceBound is CheckSliceBound over the cores skip does not mark.
func (t *Table) checkSliceBound(skip []bool) error {
	for i := range t.Cores {
		ct := &t.Cores[i]
		if skip != nil && skip[i] {
			continue
		}
		if shortest, n := coreSlices(ct.Allocs, t.Len); n > MaxSlicesPerCore {
			return fmt.Errorf("table: core %d would need %d slices (> %d); shortest allocation %d ns too small for table length %d",
				ct.Core, n, MaxSlicesPerCore, shortest, t.Len)
		}
	}
	return nil
}

// SliceCount returns the total number of slice entries the table's
// index holds across all cores (a proxy for the dispatcher-visible
// memory footprint).
func (t *Table) SliceCount() int {
	n := int64(0)
	for i := range t.Cores {
		_, k := coreSlices(t.Cores[i].Allocs, t.Len)
		n += k
	}
	return int(n)
}

// NewIndex builds t's slice index. t must be valid and within the slice
// bound, as a planned or decoded table is (CheckSliceBound).
//
// prev and prevIdx, when both are non-nil, are the table installed
// before t and its index. A core whose allocation list is the one at
// the same position of prev — the same backing array, or failing that
// the same elements — under the same table length takes prevIdx's
// entries for that core, shared: entries are positions in the
// allocation list and never mention vCPUs or core ids, so a list with
// renamed vCPUs or a renumbered core indexes identically.
func NewIndex(t, prev *Table, prevIdx *Index) *Index {
	reuse := prev != nil && prevIdx != nil && prev.Len == t.Len && len(prevIdx.cores) == len(prev.Cores)
	x := &Index{cores: make([]coreIndex, len(t.Cores))}
	for ci := range t.Cores {
		as := t.Cores[ci].Allocs
		if reuse && ci < len(prev.Cores) {
			if pa := prev.Cores[ci].Allocs; sameBacking(as, pa) || slices.Equal(as, pa) {
				x.cores[ci] = prevIdx.cores[ci]
				continue
			}
		}
		x.cores[ci] = buildCoreIndex(as, t.Len)
	}
	return x
}

func buildCoreIndex(as []Alloc, tlen int64) coreIndex {
	sliceLen, n := coreSlices(as, tlen)
	if n == 0 {
		return coreIndex{}
	}
	// Slice si points at the first allocation ending after its start
	// si*sliceLen — so allocation ai claims every unclaimed slice up to
	// ⌈End/sliceLen⌉, and what is left past the last one is idle.
	// (Check states the same rule slice by slice.)
	entries := make([]int32, n)
	si := int64(0)
	for ai, a := range as {
		for hi := min((a.End+sliceLen-1)/sliceLen, n); si < hi; si++ {
			entries[si] = int32(ai)
		}
	}
	for ; si < n; si++ {
		entries[si] = int32(len(as))
	}
	return coreIndex{sliceLen: sliceLen, entries: entries}
}

// SliceLen returns core's slice length: the length of its shortest
// allocation, 0 when it has none. core is a position in the table's
// Cores.
func (x *Index) SliceLen(core int) int64 { return x.cores[core].sliceLen }

// Check verifies that x is exactly the index NewIndex builds for t: one
// core per core of t, each with the slice length and the entries its
// allocation list determines. Lookup's two-record bound and its index
// arithmetic depend on both, so an index that fails Check must not be
// handed to a dispatcher.
func (x *Index) Check(t *Table) error {
	if len(x.cores) != len(t.Cores) {
		return fmt.Errorf("table: index covers %d cores, table has %d", len(x.cores), len(t.Cores))
	}
	for ci := range t.Cores {
		ct, xc := &t.Cores[ci], &x.cores[ci]
		sliceLen, n := coreSlices(ct.Allocs, t.Len)
		if xc.sliceLen != sliceLen {
			return fmt.Errorf("table: core %d index has slice length %d, want %d", ct.Core, xc.sliceLen, sliceLen)
		}
		if int64(len(xc.entries)) != n {
			return fmt.Errorf("table: core %d index has %d slice entries, want %d for slice length %d",
				ct.Core, len(xc.entries), n, sliceLen)
		}
		ai := 0
		for si := int64(0); si < n; si++ {
			sliceStart := si * sliceLen
			for ai < len(ct.Allocs) && ct.Allocs[ai].End <= sliceStart {
				ai++
			}
			if xc.entries[si] != int32(ai) {
				return fmt.Errorf("table: core %d slice %d points at alloc %d, want %d",
					ct.Core, si, xc.entries[si], ai)
			}
		}
	}
	return nil
}

// Lookup is Table.Lookup through the index, which must be t's: it
// inspects at most two allocation records, mirroring the paper's
// two-cache-line bound. It is the dispatcher's hot path.
func (x *Index) Lookup(t *Table, core int, now int64) (vcpu int, reserved bool, until int64) {
	xc := &x.cores[core]
	as := t.Cores[core].Allocs
	pos := now % t.Len
	cycleStart := now - pos
	if xc.sliceLen == 0 {
		// Core entirely idle in this table.
		return Idle, false, cycleStart + t.Len
	}
	si := min(pos/xc.sliceLen, int64(len(xc.entries))-1)
	ai := int(xc.entries[si])
	// The slice overlaps at most two allocations; examine them in order.
	for k := 0; k < 2 && ai+k < len(as); k++ {
		a := as[ai+k]
		if pos < a.Start {
			// Idle gap before this allocation.
			return Idle, false, cycleStart + a.Start
		}
		if pos < a.End {
			return a.VCPU, a.VCPU != Idle, cycleStart + a.End
		}
	}
	// Idle tail after the (at most two) allocations this slice overlaps.
	// Slice construction guarantees no third allocation can begin inside
	// the slice, so the next boundary is the start of as[ai+2] (in a
	// later slice) or the end of the table.
	if ai+2 < len(as) {
		return Idle, false, cycleStart + as[ai+2].Start
	}
	return Idle, false, cycleStart + t.Len
}
