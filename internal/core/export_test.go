package core

import "testing"

// ShedLSFirst arms the shed-order mutant until the test ends: an
// overloaded admission and the plan-failure retry shed latency-sensitive
// guests while best-effort ones keep running, the defect the
// class-continuity oracle must convict.
func ShedLSFirst(t testing.TB) {
	shedClass = LS
	t.Cleanup(func() { shedClass = BE })
}
