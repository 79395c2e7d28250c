package verify

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tableau/internal/faults"
)

// crashMatrixSize returns the number of seeded scenarios the matrix
// covers: ~120 in -short mode (the `make recover-short` gate) and the
// full 240 otherwise.
func crashMatrixSize() int {
	if testing.Short() {
		return 120
	}
	return 240
}

// TestCrashRecoveryMatrix is the crash-recovery gate: for every seeded
// scenario, recovery resumes on the exact epoch the shadow run
// committed (bit-identical bytes and guarantees), tail damage is
// reported truthfully, and the seam flush keeps every surviving
// guarantee with strictly increasing versions. Zero violations across
// the whole matrix.
func TestCrashRecoveryMatrix(t *testing.T) {
	n := crashMatrixSize()
	failed := 0
	for seed := 0; seed < n; seed++ {
		sc := GenerateCrashScenario(int64(seed))
		a, err := RunCrash(sc)
		if err != nil {
			t.Fatalf("seed %d (%s at append %d): %v", seed, sc.Kind, sc.AtAppend, err)
		}
		if vs := CheckRecovery(a); len(vs) > 0 {
			failed++
			for _, v := range vs {
				t.Errorf("seed %d (%s at append %d of %d bursts): %s",
					seed, sc.Kind, sc.AtAppend, len(sc.Script), v)
			}
			if failed >= 5 {
				t.Fatalf("stopping after %d failing seeds", failed)
			}
		}
	}
}

// TestCrashMatrixCoversAllKinds guards the generator: the -short
// matrix must exercise every crash kind, both expected-version
// branches, and both seam-op kinds — otherwise a regression in one
// path could hide behind a skewed draw.
func TestCrashMatrixCoversAllKinds(t *testing.T) {
	kinds := map[string]int{}
	branches := map[string]int{}
	seams := map[string]int{}
	for seed := 0; seed < 120; seed++ {
		sc := GenerateCrashScenario(int64(seed))
		kinds[sc.Kind]++
		if sc.WantVersion == uint64(sc.AtAppend) {
			branches["adopt-durable-tail"]++
		} else {
			branches["resume-predecessor"]++
		}
		seams[fmt.Sprint(sc.SeamOp.Kind)]++
		if sc.AtAppend < 2 || sc.AtAppend > len(sc.Script)+1 {
			t.Fatalf("seed %d: crash at append %d outside [2, %d]", seed, sc.AtAppend, len(sc.Script)+1)
		}
	}
	for _, k := range faults.CrashKinds {
		if kinds[k] == 0 {
			t.Errorf("120 seeds never drew crash kind %s", k)
		}
	}
	for _, b := range []string{"adopt-durable-tail", "resume-predecessor"} {
		if branches[b] == 0 {
			t.Errorf("120 seeds never hit the %s branch", b)
		}
	}
	if len(seams) < 2 {
		t.Errorf("120 seeds drew only seam ops %v", seams)
	}
}

// TestGenerateCrashScenarioDeterministic: a scenario is a pure
// function of its seed.
func TestGenerateCrashScenarioDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 7, 113} {
		a, b := GenerateCrashScenario(seed), GenerateCrashScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
	}
}

// TestRunCrashDeterministic: the whole run — shadow, crash, recovery,
// seam — replays bit-identically from the same seed, which is what
// lets the crashchaos experiment emit byte-stable CSV.
func TestRunCrashDeterministic(t *testing.T) {
	run := func() *CrashArtifacts {
		a, err := RunCrash(GenerateCrashScenario(17))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := run(), run()
	if a.Report.RecoveredVersion != b.Report.RecoveredVersion ||
		!bytes.Equal(a.Report.RecoveredBytes, b.Report.RecoveredBytes) ||
		a.Report.TruncatedBytes != b.Report.TruncatedBytes {
		t.Fatal("two runs of the same seed recovered differently")
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i].Version != b.History[i].Version || !bytes.Equal(epochBytes(a.History[i]), epochBytes(b.History[i])) {
			t.Fatalf("history entry %d differs between runs", i)
		}
	}
}
