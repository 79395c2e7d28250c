package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/faults"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/vmm"
)

// ClassRecovery is the crash-recovery oracle family: after a seeded
// crash at a journal append boundary, core.Recover must resume on
// exactly the epoch a never-crashed shadow run committed at that point
// — bit-identical table bytes and guarantees — report tail damage
// truthfully, and hand over a controller whose next epochs keep every
// surviving guarantee across the crash seam with strictly increasing
// versions.
const ClassRecovery = "recovery"

// CrashScenario is one seeded crash storm: a small host, a churn
// script of single-op bursts (each committing exactly one epoch), and
// one crash planted at a journal append boundary. Everything below is
// a pure function of Seed, so a scenario regenerates identically from
// its seed alone.
type CrashScenario struct {
	Seed  int64
	Cores int
	// VMs is the registered population; ActiveAtStart marks the slots
	// resident when the machine starts. Slot ids equal indices here
	// (vCPU ids are fixed at machine start, so registration order is
	// identity on both the original and the recovered host).
	VMs           []core.VMConfig
	ActiveAtStart []bool
	// Script is one batch per burst. Each batch holds a single
	// always-admissible op, so burst i commits epoch version i+1 — the
	// journal's record k carries version k (record 1 is the baseline
	// epoch AttachJournal appends).
	Script [][]core.Op
	// AtAppend (1-based) and Kind place the crash; AtAppend is drawn
	// from [2, len(Script)+1] so the crash always fires after the
	// baseline record.
	AtAppend int
	Kind     string
	// WantVersion is the epoch recovery must resume on: AtAppend for a
	// post-append crash (the record is durable even though the dying
	// flush saw an error), AtAppend-1 for every other kind.
	WantVersion uint64
	// SeamOp is the first post-recovery op, chosen against the
	// population as of WantVersion so it is always admissible.
	SeamOp core.Op
}

// CrashArtifacts is everything CheckRecovery needs from one RunCrash.
type CrashArtifacts struct {
	Scenario *CrashScenario
	// Truth is the shadow run's full epoch history (versions 1..n): the
	// ground truth a crashed-then-recovered host is measured against.
	Truth []core.Epoch
	// CrashErr is the error the dying flush observed (wraps
	// faults.ErrCrashed).
	CrashErr error
	// Report is what Recover said it found and did.
	Report *core.RecoveryReport
	// History is the recovered controller's epoch history after the
	// seam flush: the replayed prefix, the emergency replan when the
	// tail was damaged, and the seam epoch.
	History []core.Epoch
	// SeamVersion is the version the post-recovery flush committed;
	// SeamErr is its error, if any.
	SeamVersion uint64
	SeamErr     error
}

// GenerateCrashScenario derives a scenario from a seed: 2-4 cores, a
// population of 2 slots per core plus 0-2 spares at 1/8 or 1/4
// utilization (worst-case load stays under the core count, so every
// activation admits), 4-8 single-op bursts, and a crash of a seeded
// kind at a seeded append boundary.
func GenerateCrashScenario(seed int64) *CrashScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &CrashScenario{Seed: seed}
	sc.Cores = 2 + rng.Intn(3)
	n := 2*sc.Cores + rng.Intn(3)
	sc.VMs = make([]core.VMConfig, n)
	sc.ActiveAtStart = make([]bool, n)
	for i := range sc.VMs {
		util := core.Util{Num: 1, Den: 8}
		if rng.Intn(2) == 0 {
			util.Den = 4
		}
		goal := int64(20_000_000)
		if rng.Intn(2) == 0 {
			goal = 30_000_000
		}
		sc.VMs[i] = core.VMConfig{
			Name:        fmt.Sprintf("crash-vm%d", i),
			Util:        util,
			LatencyGoal: goal,
			Capped:      rng.Intn(2) == 0,
		}
		// At least two slots resident at start: deactivations below
		// always leave one, and the initial plan is never empty.
		sc.ActiveAtStart[i] = i < 2 || rng.Intn(2) == 0
	}

	active := append([]bool(nil), sc.ActiveAtStart...)
	bursts := 4 + rng.Intn(5)
	sc.Script = make([][]core.Op, bursts)
	for b := range sc.Script {
		sc.Script[b] = []core.Op{drawToggle(rng, active)}
	}
	sc.AtAppend = 2 + rng.Intn(bursts)
	sc.Kind = faults.CrashKinds[rng.Intn(len(faults.CrashKinds))]
	sc.WantVersion = uint64(sc.AtAppend - 1)
	if sc.Kind == faults.CrashPostAppend {
		sc.WantVersion = uint64(sc.AtAppend)
	}

	// Replay the mirror to the recovered population (epoch version v is
	// the state after burst v-1) and pick a seam op against it.
	active = append(active[:0], sc.ActiveAtStart...)
	for _, batch := range sc.Script[:sc.WantVersion-1] {
		applyToggle(active, batch[0])
	}
	sc.SeamOp = drawToggle(rng, active)
	return sc
}

// drawToggle picks one admissible activation/deactivation against the
// mirrored active set and applies it to the mirror.
func drawToggle(rng *rand.Rand, active []bool) core.Op {
	var on, off []int
	for i, a := range active {
		if a {
			on = append(on, i)
		} else {
			off = append(off, i)
		}
	}
	var op core.Op
	if len(off) > 0 && (len(on) <= 1 || rng.Intn(2) == 0) {
		op = core.Op{Kind: core.OpActivate, Slot: off[rng.Intn(len(off))]}
	} else {
		op = core.Op{Kind: core.OpDeactivate, Slot: on[rng.Intn(len(on))]}
	}
	applyToggle(active, op)
	return op
}

func applyToggle(active []bool, op core.Op) {
	active[op.Slot] = op.Kind == core.OpActivate
}

// crashRig builds the scenario's host on the given journal store: the
// registered population, a dispatcher bound to a started (not run)
// machine, and a journaling controller whose baseline epoch is the
// store's record 1.
func crashRig(sc *CrashScenario, store journal.Store) (*core.Controller, error) {
	sys := core.NewSystem(sc.Cores, planner.Options{}, dispatch.Options{})
	for i, cfg := range sc.VMs {
		id, err := sys.AddVM(cfg)
		if err != nil {
			return nil, fmt.Errorf("registering slot %d: %w", i, err)
		}
		if id != i {
			return nil, fmt.Errorf("slot %d registered as id %d", i, id)
		}
		if !sc.ActiveAtStart[i] {
			if err := sys.SetActive(id, false); err != nil {
				return nil, err
			}
		}
	}
	d, res, err := sys.BuildDispatcher()
	if err != nil {
		return nil, fmt.Errorf("initial plan: %w", err)
	}
	bindMachine(sys, d)
	ctrl, err := core.NewController(sys, d, res)
	if err != nil {
		return nil, err
	}
	if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
		return nil, fmt.Errorf("journal baseline: %w", err)
	}
	return ctrl, nil
}

// bindMachine attaches a started (not run) machine with one vCPU per
// slot so PushTable has a time base; nothing adopts until it runs.
func bindMachine(sys *core.System, d *dispatch.Dispatcher) {
	m := vmm.New(sim.New(1), sys.Cores(), d, vmm.NoOverheads())
	for i := 0; i < sys.NumSlots(); i++ {
		m.AddVCPU(sys.Config(i).Name, vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
			return vmm.Compute(1_000_000)
		}), 256, true)
	}
	m.Start()
}

// RunCrash executes one scenario end to end: a shadow run that never
// crashes establishes the ground-truth epoch sequence, the crashed run
// dies at the planted append boundary, and core.Recover rebuilds a
// controller from the surviving journal image. One seam op is then
// flushed through the recovered controller so the oracles can check
// continuity across the crash seam.
func RunCrash(sc *CrashScenario) (*CrashArtifacts, error) {
	// Shadow run: same rig, same script, a journal that never fails.
	shadow, err := crashRig(sc, journal.NewMemStore())
	if err != nil {
		return nil, fmt.Errorf("shadow rig: %w", err)
	}
	for b, batch := range sc.Script {
		shadow.SubmitBatch(batch)
		if _, err := shadow.Flush(); err != nil {
			return nil, fmt.Errorf("shadow burst %d: %w", b, err)
		}
	}
	a := &CrashArtifacts{Scenario: sc, Truth: shadow.History()}

	// Crashed run: identical script on a store that dies at AtAppend.
	cs, err := faults.NewCrashStore(journal.NewMemStore(), faults.CrashPlan{
		AtAppend: sc.AtAppend, Kind: sc.Kind, Seed: sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	crashed, err := crashRig(sc, cs)
	if err != nil {
		return nil, fmt.Errorf("crashed rig: %w", err)
	}
	for b, batch := range sc.Script {
		crashed.SubmitBatch(batch)
		if _, err := crashed.Flush(); err != nil {
			if errors.Is(err, faults.ErrCrashed) {
				a.CrashErr = err
				break
			}
			return nil, fmt.Errorf("crashed run burst %d failed for another reason: %w", b, err)
		}
	}
	if !cs.Crashed() {
		return nil, fmt.Errorf("crash at append %d never fired (script too short)", sc.AtAppend)
	}

	// Recovery from the bytes that survived the crash.
	img, err := cs.Surviving()
	if err != nil {
		return nil, err
	}
	rc, rd, report, err := core.Recover(journal.NewMemStoreFrom(img), core.RecoverOptions{
		ReplanTorn: true,
	})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	a.Report = report

	// Resume serving: rebind a machine and flush the seam op.
	bindMachine(rc.System(), rd)
	rc.Submit(sc.SeamOp)
	tr, serr := rc.Flush()
	a.SeamErr = serr
	if tr != nil {
		a.SeamVersion = tr.Version
	}
	a.History = rc.History()
	return a, nil
}

// CheckRecovery runs the recovery-equivalence and crash-seam oracles
// over one RunCrash's artifacts.
//
//   - equivalence: the recovered version is WantVersion, its table
//     bytes and guarantees are bit-identical to the shadow epoch of
//     the same version, and every replayed epoch matches the shadow
//     history entry of its version.
//   - tail truth: torn and bit-flip crashes must be reported as tail
//     damage (and trigger the emergency replan); pre/post-append
//     crashes must report a clean tail.
//   - seam continuity: every guarantee held in the recovered epoch
//     survives into each subsequent epoch unless the seam op
//     deactivated its slot, and versions increase strictly across the
//     seam.
func CheckRecovery(a *CrashArtifacts) []Violation {
	sc := a.Scenario
	var out []Violation
	bad := func(slot int, format string, args ...any) {
		out = append(out, Violation{ClassRecovery, slot, fmt.Sprintf(format, args...)})
	}

	if a.CrashErr == nil {
		bad(-1, "dying flush reported no error")
	}
	rep := a.Report
	if rep.RecoveredVersion != sc.WantVersion {
		bad(-1, "recovered version %d, want %d (%s at append %d)",
			rep.RecoveredVersion, sc.WantVersion, sc.Kind, sc.AtAppend)
		return out // every later check keys off the version; stop here
	}
	truth := a.Truth[sc.WantVersion-1]
	if truth.Version != sc.WantVersion {
		bad(-1, "shadow history misaligned: entry %d has version %d", sc.WantVersion-1, truth.Version)
		return out
	}
	if tb := epochBytes(truth); !bytes.Equal(rep.RecoveredBytes, tb) {
		bad(-1, "recovered epoch %d bytes differ from shadow (%d vs %d bytes)",
			sc.WantVersion, len(rep.RecoveredBytes), len(tb))
	}

	// Tail truth and the emergency replan.
	switch sc.Kind {
	case faults.CrashTorn, faults.CrashBitFlip:
		if rep.TailErr == nil || rep.TruncatedBytes == 0 {
			bad(-1, "%s: tail damage not reported (err %v, %d bytes cut)",
				sc.Kind, rep.TailErr, rep.TruncatedBytes)
		}
		if !rep.Replanned {
			bad(-1, "%s: emergency replan did not commit: %v", sc.Kind, rep.ReplanErr)
		}
	default:
		if rep.TailErr != nil || rep.TruncatedBytes != 0 {
			bad(-1, "%s: phantom tail damage (err %v, %d bytes cut)",
				sc.Kind, rep.TailErr, rep.TruncatedBytes)
		}
		if rep.Replanned {
			bad(-1, "%s: emergency replan fired on a clean tail", sc.Kind)
		}
	}

	// Replayed prefix: every recovered epoch up to WantVersion is
	// bit-identical to the shadow epoch of the same version.
	var recovered *core.Epoch
	for i := range a.History {
		ep := &a.History[i]
		if ep.Version > sc.WantVersion {
			break
		}
		tep := a.Truth[ep.Version-1]
		if b := epochBytes(*ep); b == nil || !bytes.Equal(b, epochBytes(tep)) {
			bad(-1, "replayed epoch %d bytes differ from shadow", ep.Version)
		}
		if !guaranteesEqual(ep.Guarantees, tep.Guarantees) {
			bad(-1, "replayed epoch %d guarantees differ from shadow", ep.Version)
		}
		if ep.Version == sc.WantVersion {
			recovered = ep
		}
	}
	if recovered == nil {
		bad(-1, "recovered epoch %d missing from history", sc.WantVersion)
		return out
	}

	// The seam flush must commit, and versions must stay strictly
	// monotonic across the crash.
	if a.SeamErr != nil {
		bad(-1, "seam flush failed: %v", a.SeamErr)
	} else if a.SeamVersion <= sc.WantVersion {
		bad(-1, "seam epoch version %d does not exceed recovered %d", a.SeamVersion, sc.WantVersion)
	}
	for i := 1; i < len(a.History); i++ {
		if a.History[i].Version <= a.History[i-1].Version {
			bad(-1, "history versions not strictly increasing: %d then %d",
				a.History[i-1].Version, a.History[i].Version)
		}
	}

	// Seam continuity: from the recovered epoch forward, a slot holding
	// a guarantee keeps one in the next epoch — the only legitimate
	// drop is the seam op deactivating it.
	start := 0
	for i := range a.History {
		if a.History[i].Version == sc.WantVersion {
			start = i
			break
		}
	}
	for i := start; i+1 < len(a.History); i++ {
		cur, next := &a.History[i], &a.History[i+1]
		held := make(map[int]bool, len(next.Guarantees))
		for _, g := range next.Guarantees {
			held[g.VCPU] = true
		}
		for _, g := range cur.Guarantees {
			if held[g.VCPU] {
				continue
			}
			if sc.SeamOp.Kind == core.OpDeactivate && sc.SeamOp.Slot == g.VCPU &&
				a.SeamErr == nil && next.Version == a.SeamVersion {
				continue // the seam op tore this slot down on purpose
			}
			bad(g.VCPU, "guarantee lost across the seam: held in epoch %d, gone in %d",
				cur.Version, next.Version)
		}
	}
	return out
}

// epochBytes is ep's table encoding: the bytes it carries or, for an
// epoch that carries none (every superseded epoch does), an encode of
// its table. Epochs compare by content. Nil only when the table cannot
// be encoded.
func epochBytes(ep core.Epoch) []byte {
	ep, err := ep.Encoded()
	if err != nil {
		return nil
	}
	return ep.Bytes
}

func guaranteesEqual(a, b []table.Guarantee) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
