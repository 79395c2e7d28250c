package planner

import (
	"tableau/internal/table"
)

// coalesceThreshold is the shortest reservation, in ns, the planner
// leaves in a table: a shorter one is merged into a neighbor, since
// context-switch overheads dominate it and it cannot be enforced. It is
// also the smallest piece C=D splitting cuts.
const coalesceThreshold = 10_000

// mergeContiguous merges adjacent allocations of the same vCPU whose
// intervals touch. The input must be sorted and non-overlapping; the
// result is too.
func mergeContiguous(allocs []table.Alloc) []table.Alloc {
	if len(allocs) == 0 {
		return allocs
	}
	out := allocs[:1]
	for _, a := range allocs[1:] {
		last := &out[len(out)-1]
		if a.VCPU == last.VCPU && a.Start == last.End {
			last.End = a.End
			continue
		}
		out = append(out, a)
	}
	return out
}

// coalesceCore removes unenforceably small reservations (paper Sec. 5,
// post-processing) from one core's allocation list, appending the
// result to dst and leaving allocs untouched:
//
//  1. contiguous same-vCPU allocations are merged;
//  2. a sub-threshold allocation adjacent to idle time is widened into
//     the idle gap until it reaches the threshold (this only adds
//     service, so it is always safe).
//
// A sliver squeezed between other reservations survives: folding it
// into a neighbour would cost its vCPU service, and before coalescing
// every vCPU holds exactly its guaranteed service in each window.
//
// tableLen bounds the widening in step 2. mayWiden gates step 2 per
// vCPU: widening a split vCPU's reservation could overlap its
// reservation on another core, so the planner only permits widening for
// unsplit vCPUs.
//
// The list only ever shrinks, so every step runs in place on the copy
// appended to dst; the returned slice is dst extended by the result.
func coalesceCore(dst, allocs []table.Alloc, threshold, tableLen int64, mayWiden func(vcpu int) bool) []table.Alloc {
	base := len(dst)
	dst = append(dst, allocs...)
	work := mergeContiguous(dst[base:])
	if threshold <= 0 {
		return dst[:base+len(work)]
	}
	// Step 2: widen slivers into adjacent idle time.
	for i := range work {
		a := &work[i]
		if a.Len() >= threshold {
			continue
		}
		if mayWiden != nil && !mayWiden(a.VCPU) {
			continue
		}
		need := threshold - a.Len()
		// Idle room after this allocation.
		roomAfter := tableLen - a.End
		if i+1 < len(work) {
			roomAfter = work[i+1].Start - a.End
		}
		grow := min64(need, roomAfter)
		a.End += grow
		need -= grow
		if need > 0 {
			// Idle room before.
			roomBefore := a.Start
			if i > 0 {
				roomBefore = a.Start - work[i-1].End
			}
			grow = min64(need, roomBefore)
			a.Start -= grow
		}
	}
	return dst[:base+len(mergeContiguous(work))]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
