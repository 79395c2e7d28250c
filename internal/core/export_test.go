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

// forceFullRecords makes every journal record full until the test ends:
// the knockout the delta records are checked against.
func forceFullRecords(t testing.TB) {
	deltaRecords = false
	t.Cleanup(func() { deltaRecords = true })
}
