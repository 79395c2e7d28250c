package experiments

import (
	"bytes"

	"tableau/internal/verify"
)

// The crashchaos experiment measures the durability claim of the epoch
// journal: across hundreds of seeded crash storms — churn bursts on a
// small host, a process death planted at a journal append boundary
// (before the write, mid-write, after the write, or with a bit flipped
// in flight) — core.Recover must resume on exactly the epoch a
// never-crashed shadow run had committed at that point, bit for bit,
// and the first post-recovery epoch must keep every surviving
// guarantee. Every row is a pure function of its seed, so the CSV is
// byte-stable across runs and across -parallel settings.

// CrashPoint is one seeded crash storm of the crashchaos matrix.
type CrashPoint struct {
	Seed     int64
	Kind     string
	AtAppend int64 // 1-based append boundary the crash fired on
	Bursts   int64 // committed churn bursts in the script
	Cores    int64
	Slots    int64
	// ExpectedVersion is the epoch the shadow run says recovery must
	// resume on; RecoveredVersion is what Recover actually reported.
	ExpectedVersion  int64
	RecoveredVersion int64
	// BitIdentical reports that the recovered epoch's table bytes match
	// the shadow epoch of the same version exactly.
	BitIdentical bool
	// TruncatedBytes is the torn/corrupt tail cut during recovery;
	// Replanned reports the emergency replan that supersedes a lost
	// tail.
	TruncatedBytes int64
	Replanned      bool
	// SeamVersion is the first post-recovery epoch committed through
	// the recovered controller.
	SeamVersion int64
	// Violations counts recovery-oracle findings; the acceptance gate
	// demands zero on every row.
	Violations int64
}

// RunCrashStorm runs one seeded crash storm end to end and scores it
// with the recovery oracles.
func RunCrashStorm(seed int64) (CrashPoint, error) {
	sc := verify.GenerateCrashScenario(seed)
	pt := CrashPoint{
		Seed:            seed,
		Kind:            sc.Kind,
		AtAppend:        int64(sc.AtAppend),
		Bursts:          int64(len(sc.Script)),
		Cores:           int64(sc.Cores),
		Slots:           int64(len(sc.VMs)),
		ExpectedVersion: int64(sc.WantVersion),
	}
	a, err := verify.RunCrash(sc)
	if err != nil {
		return pt, err
	}
	pt.RecoveredVersion = int64(a.Report.RecoveredVersion)
	// A superseded shadow epoch carries no bytes: encode its table.
	truth, err := a.Truth[sc.WantVersion-1].Encoded()
	if err != nil {
		return pt, err
	}
	pt.BitIdentical = bytes.Equal(a.Report.RecoveredBytes, truth.Bytes)
	pt.TruncatedBytes = int64(a.Report.TruncatedBytes)
	pt.Replanned = a.Report.Replanned
	pt.SeamVersion = int64(a.SeamVersion)
	pt.Violations = int64(len(verify.CheckRecovery(a)))
	return pt, nil
}

// crashChaosSeeds is the matrix size per mode. Quick already covers
// the 200-storm acceptance floor; Full doubles it.
func crashChaosSeeds(mode Mode) int {
	if mode == Full {
		return 400
	}
	return 200
}

// CrashChaos runs the full seeded crash matrix and renders it.
func CrashChaos(mode Mode) (*Result, error) {
	n := crashChaosSeeds(mode)
	r := &Result{
		Name:   "crashchaos",
		Title:  "Durable epoch journal under seeded crash storms: recovery equivalence vs a never-crashed shadow run",
		Header: []string{"seed", "kind", "at_append", "bursts", "cores", "slots", "expected_version", "recovered_version", "bit_identical", "truncated_bytes", "replanned", "seam_version", "violations"},
		Note:   "Each seed is one crash storm: churn bursts committing one epoch each, a crash planted at journal append boundary at_append (pre-append / torn / post-append / bit-flip), then core.Recover on the surviving bytes. bit_identical compares recovered epoch bytes against the shadow epoch of the same version; violations counts recovery-oracle findings (version mismatch, byte drift, phantom or unreported tail damage, guarantees lost across the crash seam) and must be 0 on every row.",
	}
	pts, err := Collect(n, func(i int) (CrashPoint, error) {
		return RunCrashStorm(int64(i))
	})
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		r.Rows = append(r.Rows, []string{
			itoa(p.Seed), p.Kind, itoa(p.AtAppend), itoa(p.Bursts),
			itoa(p.Cores), itoa(p.Slots),
			itoa(p.ExpectedVersion), itoa(p.RecoveredVersion), b2s(p.BitIdentical),
			itoa(p.TruncatedBytes), b2s(p.Replanned), itoa(p.SeamVersion),
			itoa(p.Violations),
		})
	}
	return r, nil
}

func b2s(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
