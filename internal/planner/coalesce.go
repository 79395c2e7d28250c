package planner

import (
	"tableau/internal/table"
)

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
//     service, so it is always safe);
//  3. a sub-threshold allocation squeezed between other reservations is
//     donated to its longer neighbor, but only if donate reports that
//     the owning vCPU can afford the loss (the planner wires donate to a
//     per-window service-slack check).
//
// tableLen bounds the widening in step 2. mayWiden gates step 2 per
// vCPU: widening a split vCPU's reservation could overlap its
// reservation on another core, so the planner only permits widening for
// unsplit vCPUs.
//
// The list only ever shrinks, so every step runs in place on the copy
// appended to dst; the returned slice is dst extended by the result.
func coalesceCore(dst, allocs []table.Alloc, threshold, tableLen int64, mayWiden func(vcpu int) bool, donate func(vcpu int, start, end int64) bool) []table.Alloc {
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
	work = mergeContiguous(work)
	// Step 3: donate remaining slivers to a neighbor. out trails the read
	// position, so it is built over the entries already consumed.
	out := work[:0]
	for i := 0; i < len(work); i++ {
		a := work[i]
		if a.Len() >= threshold || donate == nil || !donate(a.VCPU, a.Start, a.End) {
			out = append(out, a)
			continue
		}
		// Prefer the neighbor that touches the sliver; among touching
		// neighbors, the longer one.
		prevTouches := len(out) > 0 && out[len(out)-1].End == a.Start
		nextTouches := i+1 < len(work) && work[i+1].Start == a.End
		switch {
		case prevTouches && (!nextTouches || out[len(out)-1].Len() >= work[i+1].Len()):
			out[len(out)-1].End = a.End
		case nextTouches:
			work[i+1].Start = a.Start
		default:
			// Isolated sliver bordered by idle on both sides would have
			// been widened in step 2; keep it as a fallback.
			out = append(out, a)
		}
	}
	return dst[:base+len(mergeContiguous(out))]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
