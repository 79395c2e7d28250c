package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tableau/internal/planner"
)

// ShedLSFirst arms the shed-order mutant until the test ends: an
// overloaded admission and the plan-failure retry shed latency-sensitive
// guests while best-effort ones keep running, the defect the
// class-continuity oracle must convict.
func ShedLSFirst(t testing.TB) {
	shedClass = LS
	t.Cleanup(func() { shedClass = BE })
}

// forceFullRecords makes every journal record full until the test ends:
// the knockout the delta records are checked against.
func forceFullRecords(t testing.TB) {
	deltaRecords = false
	t.Cleanup(func() { deltaRecords = true })
}

// admitOracleLocked is the verdict admitLocked must return: the
// planner's full admission over activeSpecsLocked — every spec
// validated and every name compared, then the utilization summed, of
// the LS specs only when lsOnly.
func admitOracleLocked(s *System, lsOnly bool) error {
	specs := s.activeSpecsLocked()
	cores := len(s.onlineCoresLocked())
	if cores == 0 {
		return fmt.Errorf("core: every core has failed")
	}
	if !lsOnly {
		return planner.Admit(specs, cores)
	}
	// No population of n valid specs sums past n: with that many cores,
	// Admit refuses only an invalid spec or a repeated name.
	if err := planner.Admit(specs, max(cores, len(specs))); err != nil {
		return err
	}
	ls := slices.DeleteFunc(slices.Clone(specs), func(sp planner.VCPUSpec) bool { return sp.Class != LS })
	return planner.Admit(ls, cores)
}

// checkAdmissions holds every admitLocked verdict to admitOracleLocked
// until the test ends, and counts the verdicts by kind.
func checkAdmissions(t *testing.T) *admitCounts {
	t.Helper()
	var n admitCounts
	onAdmit = func(s *System, lsOnly bool, err error) {
		want := admitOracleLocked(s, lsOnly)
		if !sameAdmitError(err, want) {
			t.Errorf("per-op admission (LS only %v) says %v, the planner's %v", lsOnly, err, want)
		}
		var over *planner.ErrOverUtilized
		var dup *planner.DuplicateNameError
		switch {
		case err == nil:
			n.ok++
		case errors.As(err, &over):
			n.over++
		case errors.As(err, &dup):
			n.dup++
		}
		if lsOnly {
			n.lsOnly++
		}
	}
	t.Cleanup(func() { onAdmit = nil })
	return &n
}

type admitCounts struct{ ok, over, dup, lsOnly int }

// sameAdmitError reports whether two admission verdicts agree: both nil,
// or the same kind of refusal with the same text and, for an
// over-utilization, the same exact total.
func sameAdmitError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	if reflect.TypeOf(got) != reflect.TypeOf(want) || got.Error() != want.Error() {
		return false
	}
	var g, w *planner.ErrOverUtilized
	if errors.As(got, &g) && errors.As(want, &w) {
		return g.Cores == w.Cores && g.Total.Cmp(w.Total) == 0
	}
	return true
}
