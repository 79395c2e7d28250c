package planner

import (
	"testing"

	"tableau/internal/table"
)

func al(start, end int64, vcpu int) table.Alloc {
	return table.Alloc{Start: start, End: end, VCPU: vcpu}
}

func allowAll(int) bool                 { return true }
func donateAll(int, int64, int64) bool  { return true }
func donateNone(int, int64, int64) bool { return false }

func TestMergeContiguous(t *testing.T) {
	in := []table.Alloc{al(0, 10, 0), al(10, 20, 0), al(20, 30, 1), al(35, 40, 1)}
	out := mergeContiguous(in)
	want := []table.Alloc{al(0, 20, 0), al(20, 30, 1), al(35, 40, 1)}
	if len(out) != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	if got := mergeContiguous(nil); got != nil {
		t.Errorf("mergeContiguous(nil) = %v", got)
	}
}

func TestCoalesceWidensIntoIdle(t *testing.T) {
	// A 5-ns sliver with idle room after it grows to the threshold.
	in := []table.Alloc{al(0, 5, 0), al(50, 80, 1)}
	out := coalesceCore(nil, in, 20, 100, allowAll, donateNone)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Len() != 20 || out[0].Start != 0 {
		t.Errorf("sliver not widened forward: %v", out[0])
	}
}

func TestCoalesceWidensBackward(t *testing.T) {
	// Idle room only before the sliver.
	in := []table.Alloc{al(0, 40, 1), al(95, 100, 0)}
	out := coalesceCore(nil, in, 20, 100, allowAll, donateNone)
	if out[1].Len() != 20 || out[1].End != 100 {
		t.Errorf("sliver not widened backward: %v", out[1])
	}
}

func TestCoalesceRespectsMayWiden(t *testing.T) {
	in := []table.Alloc{al(0, 5, 0), al(50, 80, 1)}
	out := coalesceCore(nil, in, 20, 100, func(v int) bool { return v != 0 }, donateNone)
	if out[0].Len() != 5 {
		t.Errorf("split vCPU sliver was widened: %v", out[0])
	}
}

func TestCoalesceDonatesToNeighbor(t *testing.T) {
	// Sliver squeezed between two reservations; donation allowed.
	in := []table.Alloc{al(0, 40, 1), al(40, 45, 0), al(45, 90, 2)}
	out := coalesceCore(nil, in, 20, 100, func(int) bool { return false }, donateAll)
	if len(out) != 2 {
		t.Fatalf("out = %v, want sliver donated", out)
	}
	// The longer neighbor (vcpu 2, 45 ns) gets the time.
	if out[1].VCPU != 2 || out[1].Start != 40 {
		t.Errorf("donation went to %v, want vcpu 2 extended to 40", out[1])
	}
	total := out[0].Len() + out[1].Len()
	if total != 90 {
		t.Errorf("time not conserved: %d", total)
	}
}

func TestCoalesceKeepsSliverWhenDonationRefused(t *testing.T) {
	in := []table.Alloc{al(0, 40, 1), al(40, 45, 0), al(45, 90, 2)}
	out := coalesceCore(nil, in, 20, 100, func(int) bool { return false }, donateNone)
	if len(out) != 3 {
		t.Errorf("sliver should survive refused donation: %v", out)
	}
}

func TestCoalesceDoesNotMutateInput(t *testing.T) {
	in := []table.Alloc{al(0, 10, 0), al(10, 20, 0)}
	_ = coalesceCore(nil, in, 5, 100, allowAll, donateAll)
	if in[0] != (al(0, 10, 0)) || in[1] != (al(10, 20, 0)) {
		t.Errorf("input mutated: %v", in)
	}
}

func TestCoalesceThresholdZeroMergesOnly(t *testing.T) {
	in := []table.Alloc{al(0, 1, 0), al(1, 2, 0), al(5, 6, 1)}
	out := coalesceCore(nil, in, 0, 100, allowAll, donateAll)
	want := []table.Alloc{al(0, 2, 0), al(5, 6, 1)}
	if len(out) != len(want) || out[0] != want[0] || out[1] != want[1] {
		t.Errorf("out = %v, want %v", out, want)
	}
}
