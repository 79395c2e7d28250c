// Package table defines Tableau's scheduling-table data structures: the
// per-core allocation lists produced by the planner, the slice tables
// that give the dispatcher O(1) lookups (paper Sec. 6, Fig. 2), a compact
// binary serialization (the "compiled format" pushed to the hypervisor
// via hypercall in the paper), and checkers that prove a table satisfies
// the paper's two guarantees: minimum per-period service and bounded
// scheduling blackout.
package table

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Idle marks an interval during which no vCPU holds a reservation; the
// dispatcher hands such intervals to the second-level scheduler.
const Idle = -1

// An Alloc reserves the half-open interval [Start, End) of every table
// cycle for one vCPU on one core. Offsets are relative to the start of
// the table.
type Alloc struct {
	Start int64
	End   int64
	VCPU  int
}

// Len returns the allocation length in ns.
func (a Alloc) Len() int64 { return a.End - a.Start }

func (a Alloc) String() string {
	return fmt.Sprintf("[%d,%d)→vcpu%d", a.Start, a.End, a.VCPU)
}

// VCPUInfo carries the per-vCPU metadata the dispatcher needs beyond the
// raw reservations.
type VCPUInfo struct {
	// Name identifies the vCPU (e.g. "vm17.0").
	Name string
	// Capped vCPUs may consume only their reserved allocations; uncapped
	// vCPUs additionally take part in second-level scheduling.
	Capped bool
	// HomeCore is the core on which the vCPU participates in
	// second-level scheduling (the "trailing core" for split vCPUs).
	HomeCore int
	// Split reports whether the vCPU has reservations on more than one
	// core (semi-partitioning or cluster scheduling).
	Split bool
	// Utilization is the reserved utilization in parts-per-million, for
	// reporting and admission accounting.
	UtilizationPPM int64
	// LatencyGoal is the configured maximum scheduling latency L in ns.
	LatencyGoal int64
}

// CoreTable is the schedule of a single physical core: a sorted list of
// non-overlapping allocations plus the slice index that makes lookups
// O(1).
type CoreTable struct {
	Core   int
	Allocs []Alloc

	// SliceLen is this core's slice length: the length of the shortest
	// allocation, so that any slice overlaps at most two allocations.
	// Zero when the core has no allocations.
	SliceLen int64

	// slices[i] is the index into Allocs of the first allocation that
	// overlaps slice i, or len(Allocs) if the slice is entirely idle.
	slices []int32
}

// Table is a complete scheduling table for a machine.
type Table struct {
	// Len is the table length in ns; the schedule repeats cyclically
	// with this period. It is always a divisor multiple structure of
	// the planner's hyperperiod bound.
	Len int64
	// Cores holds one CoreTable per physical core.
	Cores []CoreTable
	// VCPUs holds metadata for every vCPU mentioned by any allocation.
	VCPUs []VCPUInfo
	// Generation is a monotonically increasing table version, used by
	// the dispatcher's lock-free table-switch protocol.
	Generation uint64
}

// scratch holds the intermediates of Validate and Check, so that
// checking a small table — which the planner does on every plan —
// allocates only when it has a violation to describe. Nothing a checker
// returns aliases it.
type scratch struct {
	pooled bool // drawn from the pool, and due back there

	onCore   []int32   // Validate: the core each vCPU was seen on
	seenCore []bool    // Validate: core ids already met
	counts   []int32   // Check: allocations per vCPU
	backing  []Alloc   // Check: every vCPU's allocations, bucket by bucket
	buckets  [][]Alloc // Check: per-vCPU windows into backing
	svc      []int64   // Check: service per window of one guarantee
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledVCPUs is the largest table whose checks draw their scratch
// from the pool; a bigger table's checks make their own. Pooled memory
// stays reachable for a collector cycle after its last use, so what the
// pool may hold is kept to the small tables, where allocating the
// scratch was a large part of a check.
const maxPooledVCPUs = 32

func (t *Table) getScratch() *scratch {
	if len(t.VCPUs) > maxPooledVCPUs {
		return new(scratch)
	}
	sc := scratchPool.Get().(*scratch)
	sc.pooled = true
	return sc
}

func putScratch(sc *scratch) {
	if sc.pooled {
		scratchPool.Put(sc)
	}
}

// sized returns buf resliced to n zeroed elements, reallocating only
// when its capacity is short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NumCores returns the number of physical cores the table covers.
func (t *Table) NumCores() int { return len(t.Cores) }

// Validate checks the structural invariants of the table: allocation
// lists sorted and non-overlapping, intervals within [0, Len), vCPU
// indices in range, and — across cores — no two allocations of the same
// vCPU overlapping in time (split vCPUs must never run in parallel,
// paper Sec. 5).
func (t *Table) Validate() error {
	if t.Len <= 0 {
		return fmt.Errorf("table: non-positive length %d", t.Len)
	}
	for i := range t.VCPUs {
		if hc := t.VCPUs[i].HomeCore; hc < -1 || hc >= len(t.Cores) {
			return fmt.Errorf("table: vcpu %d (%s) has home core %d out of range [-1,%d)",
				i, t.VCPUs[i].Name, hc, len(t.Cores))
		}
	}
	// onCore[v] is the single core vCPU v has been seen on, -1 before
	// the first sighting, or multiCore once a second core appears. Only
	// multi-core vCPUs (splits) can violate the parallel-run invariant,
	// so the span-collection pass below runs just for them — the common
	// all-home-core table skips it entirely, and no map is involved.
	const multiCore = -2
	sc := t.getScratch()
	defer putScratch(sc)
	sc.onCore = sized(sc.onCore, len(t.VCPUs))
	onCore := sc.onCore
	for i := range onCore {
		onCore[i] = -1
	}
	nMulti := 0
	sc.seenCore = sized(sc.seenCore, len(t.Cores))
	seenCore := sc.seenCore
	for _, ct := range t.Cores {
		if ct.Core < 0 || ct.Core >= len(t.Cores) {
			return fmt.Errorf("table: core id %d out of range [0,%d)", ct.Core, len(t.Cores))
		}
		if seenCore[ct.Core] {
			return fmt.Errorf("table: duplicate core id %d", ct.Core)
		}
		seenCore[ct.Core] = true
		var prevEnd int64
		for i, a := range ct.Allocs {
			if a.Start < 0 || a.End > t.Len || a.Len() <= 0 {
				return fmt.Errorf("table: core %d alloc %d out of bounds: %v", ct.Core, i, a)
			}
			if a.Start < prevEnd {
				return fmt.Errorf("table: core %d alloc %d overlaps predecessor: %v", ct.Core, i, a)
			}
			if a.VCPU != Idle {
				if a.VCPU < 0 || a.VCPU >= len(t.VCPUs) {
					return fmt.Errorf("table: core %d alloc %d references unknown vcpu %d", ct.Core, i, a.VCPU)
				}
				switch onCore[a.VCPU] {
				case -1:
					onCore[a.VCPU] = int32(ct.Core)
				case int32(ct.Core), multiCore:
				default:
					onCore[a.VCPU] = multiCore
					nMulti++
				}
			}
			prevEnd = a.End
		}
	}
	if nMulti == 0 {
		return nil
	}
	type span struct {
		start, end int64
		core       int
	}
	byVCPU := make(map[int][]span, nMulti)
	for _, ct := range t.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU != Idle && onCore[a.VCPU] == multiCore {
				byVCPU[a.VCPU] = append(byVCPU[a.VCPU], span{a.Start, a.End, ct.Core})
			}
		}
	}
	for v, spans := range byVCPU {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end && spans[i].core != spans[i-1].core {
				return fmt.Errorf("table: vcpu %d (%s) scheduled in parallel on cores %d and %d around t=%d",
					v, t.VCPUs[v].Name, spans[i-1].core, spans[i].core, spans[i].start)
			}
		}
	}
	return nil
}

// BuildSlices computes the slice tables for every core. It must be called
// after the allocation lists are final and before Lookup is used. An
// error is returned if a slice table would exceed maxSlices entries
// (guarding against pathological memory use; pass 0 for the default of
// 4 Mi entries per core).
func (t *Table) BuildSlices(maxSlices int) error {
	return t.buildSlices(maxSlices, false)
}

// BuildMissingSlices is BuildSlices restricted to cores that have no
// index yet: cores that adopted one via TransplantSlices keep it
// untouched (the transplant is only valid for an unchanged allocation
// list, so recomputing would produce the identical array). Callers
// must not mutate a transplanted core's allocations afterwards.
func (t *Table) BuildMissingSlices(maxSlices int) error {
	return t.buildSlices(maxSlices, true)
}

func (t *Table) buildSlices(maxSlices int, skipBuilt bool) error {
	const defaultMax = 4 << 20
	if maxSlices <= 0 {
		maxSlices = defaultMax
	}
	for ci := range t.Cores {
		ct := &t.Cores[ci]
		if len(ct.Allocs) == 0 {
			ct.SliceLen = 0
			ct.slices = nil
			continue
		}
		if skipBuilt && ct.SliceLen != 0 && ct.slices != nil {
			continue
		}
		shortest := ct.Allocs[0].Len()
		for _, a := range ct.Allocs[1:] {
			if l := a.Len(); l < shortest {
				shortest = l
			}
		}
		ct.SliceLen = shortest
		n := (t.Len + shortest - 1) / shortest
		if n > int64(maxSlices) {
			return fmt.Errorf("table: core %d would need %d slices (> %d); shortest allocation %d ns too small for table length %d",
				ct.Core, n, maxSlices, shortest, t.Len)
		}
		// Slice si points at the first allocation ending after its start
		// si*shortest — so allocation ai claims every unclaimed slice up to
		// ceil(End/shortest), and what is left past the last one is idle.
		// (CheckSlices states the same rule slice by slice.)
		ct.slices = make([]int32, n)
		si := int64(0)
		for ai, a := range ct.Allocs {
			for hi := min((a.End+shortest-1)/shortest, n); si < hi; si++ {
				ct.slices[si] = int32(ai)
			}
		}
		for ; si < n; si++ {
			ct.slices[si] = int32(len(ct.Allocs))
		}
	}
	return nil
}

// TransplantSlices adopts src's slice index (slice length and backing
// array, shared — slice data is immutable once built). It is valid
// exactly when ct's allocation list has the same interval sequence as
// src's: slice entries are indices into the allocation list and never
// mention vCPUs or cores, so renaming vCPU ids or renumbering the core
// leaves the index bit-identical to what BuildSlices would recompute.
// It reports false, leaving ct untouched, when src has allocations but
// no built index to adopt.
func (ct *CoreTable) TransplantSlices(src *CoreTable) bool {
	if len(src.Allocs) > 0 && src.SliceLen == 0 {
		return false
	}
	ct.SliceLen = src.SliceLen
	ct.slices = src.slices
	return true
}

// CheckSlices verifies that every core's slice index is exactly what
// BuildSlices would produce for its allocation list and slice length —
// the invariants Lookup's two-record bound and its index arithmetic
// depend on. Tables from trusted in-process construction get this by
// construction; tables decoded from the wire must be checked before
// their slice data can be handed to the dispatcher, because a corrupt
// index (negative entries, wrong counts, a slice length longer than the
// shortest allocation) turns O(1) lookups into out-of-bounds accesses
// or wrong schedules.
func (t *Table) CheckSlices() error {
	for _, ct := range t.Cores {
		if len(ct.Allocs) == 0 {
			if ct.SliceLen != 0 || len(ct.slices) != 0 {
				return fmt.Errorf("table: core %d has slice data (len %d, %d entries) but no allocations",
					ct.Core, ct.SliceLen, len(ct.slices))
			}
			continue
		}
		if ct.SliceLen <= 0 {
			return fmt.Errorf("table: core %d has allocations but no slice index", ct.Core)
		}
		shortest := ct.Allocs[0].Len()
		for _, a := range ct.Allocs[1:] {
			if l := a.Len(); l < shortest {
				shortest = l
			}
		}
		if ct.SliceLen > shortest {
			return fmt.Errorf("table: core %d slice length %d exceeds shortest allocation %d",
				ct.Core, ct.SliceLen, shortest)
		}
		n := (t.Len + ct.SliceLen - 1) / ct.SliceLen
		if int64(len(ct.slices)) != n {
			return fmt.Errorf("table: core %d has %d slice entries, want %d for slice length %d",
				ct.Core, len(ct.slices), n, ct.SliceLen)
		}
		ai := 0
		for si := int64(0); si < n; si++ {
			sliceStart := si * ct.SliceLen
			for ai < len(ct.Allocs) && ct.Allocs[ai].End <= sliceStart {
				ai++
			}
			if ct.slices[si] != int32(ai) {
				return fmt.Errorf("table: core %d slice %d points at alloc %d, want %d",
					ct.Core, si, ct.slices[si], ai)
			}
		}
	}
	return nil
}

// Lookup returns the allocation covering time now (an absolute time; the
// table position is now modulo Len) on the given core, whether the
// interval is reserved (false means idle), and the absolute time at which
// the current interval ends and the dispatcher must be re-invoked.
//
// The lookup inspects at most two allocation records via the slice table,
// mirroring the paper's two-cache-line bound.
func (t *Table) Lookup(core int, now int64) (vcpu int, reserved bool, until int64) {
	ct := &t.Cores[core]
	pos := now % t.Len
	cycleStart := now - pos
	if ct.SliceLen == 0 {
		if len(ct.Allocs) > 0 {
			panic(ErrNoSlices)
		}
		// Core entirely idle in this table.
		return Idle, false, cycleStart + t.Len
	}
	si := pos / ct.SliceLen
	if si >= int64(len(ct.slices)) {
		si = int64(len(ct.slices)) - 1
	}
	ai := int(ct.slices[si])
	// The slice overlaps at most two allocations; examine them in order.
	for k := 0; k < 2 && ai+k < len(ct.Allocs); k++ {
		a := ct.Allocs[ai+k]
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
	// the slice, so the next boundary is the start of allocs[ai+2] (in
	// a later slice) or the end of the table.
	if ai+2 < len(ct.Allocs) {
		return Idle, false, cycleStart + ct.Allocs[ai+2].Start
	}
	return Idle, false, cycleStart + t.Len
}

// VCPUSlots returns all allocations of one vCPU across all cores, sorted
// by start time. Used by the guarantee checkers and the wakeup logic.
func (t *Table) VCPUSlots(vcpu int) []Alloc {
	var out []Alloc
	for _, ct := range t.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == vcpu {
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// CoreOfVCPUAt returns the core holding a reservation for the vCPU at
// table position pos, or -1 if none. Used by the dispatcher's wakeup
// routing ("send an IPI to the core with the current allocation").
func (t *Table) CoreOfVCPUAt(vcpu int, pos int64) int {
	for _, ct := range t.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU == vcpu && pos >= a.Start && pos < a.End {
				return ct.Core
			}
		}
	}
	return -1
}

// ServiceOf returns the total reserved time of the vCPU per table cycle.
func (t *Table) ServiceOf(vcpu int) int64 {
	var s int64
	for _, a := range t.VCPUSlots(vcpu) {
		s += a.Len()
	}
	return s
}

// GuaranteeViolation describes a failed per-vCPU guarantee check.
type GuaranteeViolation struct {
	VCPU   int
	Name   string
	Kind   string // "service" or "blackout"
	Detail string
}

func (v *GuaranteeViolation) Error() string {
	return fmt.Sprintf("table: vcpu %d (%s) violates %s guarantee: %s", v.VCPU, v.Name, v.Kind, v.Detail)
}

// Guarantee is the contract the planner promised for one vCPU, expressed
// against the table: at least Service ns in every window of WindowLen ns
// (aligned to the table start), and no service gap longer than
// MaxBlackout ns in the cyclic schedule.
type Guarantee struct {
	VCPU        int
	Service     int64
	WindowLen   int64
	MaxBlackout int64
}

// Check verifies the given guarantees against the table. It returns the
// first violation found, or nil if every guarantee holds. WindowLen must
// divide the table length (the planner arranges this by construction).
func (t *Table) Check(gs []Guarantee) error {
	if len(gs) == 0 {
		return nil
	}
	// Bucket every vCPU's allocations in one pass over the table: the
	// per-guarantee VCPUSlots scan made checking O(guarantees x total
	// allocations), which dominated plan verification on dense hosts.
	// Buckets share one backing array sized by a counting pass; a
	// vCPU's allocations arrive core by core (each core's list already
	// start-sorted), so only multi-core vCPUs (splits) need the sort.
	sc := t.getScratch()
	defer putScratch(sc)
	sc.counts = sized(sc.counts, len(t.VCPUs))
	counts := sc.counts
	total := 0
	for _, ct := range t.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU >= 0 && a.VCPU < len(t.VCPUs) {
				counts[a.VCPU]++
				total++
			}
		}
	}
	if cap(sc.backing) < total {
		sc.backing = make([]Alloc, total)
	}
	backing := sc.backing[:0]
	sc.buckets = sized(sc.buckets, len(t.VCPUs))
	buckets := sc.buckets
	off := 0
	for v, c := range counts {
		buckets[v] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for _, ct := range t.Cores {
		for _, a := range ct.Allocs {
			if a.VCPU >= 0 && a.VCPU < len(t.VCPUs) {
				buckets[a.VCPU] = append(buckets[a.VCPU], a)
			}
		}
	}
	byStart := func(a, b Alloc) int { return cmp.Compare(a.Start, b.Start) }
	for _, s := range buckets {
		if !slices.IsSortedFunc(s, byStart) {
			slices.SortFunc(s, byStart)
		}
	}
	for _, g := range gs {
		var slots []Alloc
		if g.VCPU >= 0 && g.VCPU < len(buckets) {
			slots = buckets[g.VCPU]
		}
		name := ""
		if g.VCPU >= 0 && g.VCPU < len(t.VCPUs) {
			name = t.VCPUs[g.VCPU].Name
		}
		if g.WindowLen > 0 {
			if t.Len%g.WindowLen != 0 {
				return &GuaranteeViolation{g.VCPU, name, "service",
					fmt.Sprintf("window %d does not divide table length %d", g.WindowLen, t.Len)}
			}
			// One pass over the slots, crediting each allocation to the
			// windows it overlaps, then one pass over the windows.
			sc.svc = sized(sc.svc, int(t.Len/g.WindowLen))
			svc := sc.svc
			for _, a := range slots {
				// Clamp to the table: Check does not assume Validate ran,
				// and the original window scan only ever covered [0, Len).
				first := a.Start - a.Start%g.WindowLen
				if first < 0 {
					first = 0
				}
				end := a.End
				if end > t.Len {
					end = t.Len
				}
				for w := first; w < end; w += g.WindowLen {
					lo, hi := a.Start, a.End
					if lo < w {
						lo = w
					}
					if hi > w+g.WindowLen {
						hi = w + g.WindowLen
					}
					if hi > lo {
						svc[w/g.WindowLen] += hi - lo
					}
				}
			}
			for wi, got := range svc {
				if got < g.Service {
					w := int64(wi) * g.WindowLen
					return &GuaranteeViolation{g.VCPU, name, "service",
						fmt.Sprintf("window [%d,%d): got %d ns, want >= %d ns", w, w+g.WindowLen, got, g.Service)}
				}
			}
		}
		if g.MaxBlackout > 0 {
			if len(slots) == 0 {
				return &GuaranteeViolation{g.VCPU, name, "blackout", "vcpu has no reservations"}
			}
			worst := int64(0)
			prevEnd := slots[len(slots)-1].End - t.Len
			for _, a := range slots {
				if gap := a.Start - prevEnd; gap > worst {
					worst = gap
				}
				if a.End > prevEnd {
					prevEnd = a.End
				}
			}
			if worst > g.MaxBlackout {
				return &GuaranteeViolation{g.VCPU, name, "blackout",
					fmt.Sprintf("observed %d ns > bound %d ns", worst, g.MaxBlackout)}
			}
		}
	}
	return nil
}

// ErrNoSlices is returned by methods that require BuildSlices first.
var ErrNoSlices = errors.New("table: BuildSlices has not been called")

// SliceCount returns the total number of slice entries across all cores
// (a proxy for the dispatcher-visible memory footprint).
func (t *Table) SliceCount() int {
	n := 0
	for _, ct := range t.Cores {
		n += len(ct.slices)
	}
	return n
}
