package fleet

import (
	"testing"

	"tableau/internal/planner"
)

// EvacuateBEFirst arms the evacuation-order mutant until the test ends:
// Failover re-places the best-effort wave before the latency-sensitive
// one, the defect the cross-seam oracle must convict.
func EvacuateBEFirst(t testing.TB) {
	firstWave = planner.BE
	t.Cleanup(func() { firstWave = planner.LS })
}
