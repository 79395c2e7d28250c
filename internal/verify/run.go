package verify

import (
	"bytes"
	"fmt"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/faults"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/table"
	"tableau/internal/trace"
	"tableau/internal/vmm"
	"tableau/internal/workload"
)

// runRingSize holds every record a generated run can emit: the oracles
// demand Lost() == 0 because an overwritten ring would silently shrink
// the evidence the invariants are checked against.
const runRingSize = 1 << 16

// emergencyDelay models the control plane's failure-detection latency:
// the emergency replan is issued this long after a fail-stop.
const emergencyDelay = 5_000_000

// Artifacts is everything the oracles need from a finished run: the
// scenario, the planned tables and guarantees, the machine's ground
// truth, and the trace both live and round-tripped through the
// TBTRACE1 codec.
type Artifacts struct {
	Scenario *Scenario

	// Table and Guarantees are the initial plan (vCPU ids are machine
	// vCPU ids). FinalTable is the dispatcher's active table at the end
	// of the run — different from Table after an adopted replan.
	Table      *table.Table
	Guarantees []table.Guarantee
	FinalTable *table.Table

	M          *vmm.Machine
	Dispatcher *dispatch.Dispatcher
	Sys        *core.System
	Tracer     *trace.Tracer

	// Live is the tracer's in-memory metrics; Dump is the decoded
	// result of encoding the trace, and Records its merged stream. The
	// trace-consistency oracle checks Live and Dump agree.
	Live    *trace.Metrics
	Dump    *trace.TraceData
	Records []trace.Record

	// PushErr/ReplanErr record a failed scheduled replan or emergency
	// replan (nil on success or when none was scheduled).
	PushErr   error
	ReplanErr error
	// Adopted counts EvTableSwitch records: how many cores adopted a
	// staged table during the run.
	Adopted int

	// Controller is the transactional pipeline churn scenarios run
	// through (nil for churn-free runs — those keep the direct
	// Push/EmergencyReplan path bit-for-bit). Transitions records every
	// Flush outcome with the sim time it ran, in time order; the
	// continuity oracle replays them against the epoch history.
	Controller  *core.Controller
	Transitions []ChurnTransition
}

// ChurnTransition pairs one control-plane flush with the sim time it
// ran. Tr is never nil; a rolled-back flush is recorded too (rollback
// under a storm is legitimate behaviour the oracles must see).
type ChurnTransition struct {
	At int64
	Tr *core.Transition
}

// Run executes the scenario under the Tableau stack and returns the
// artifacts for oracle replay. The run uses the zero overhead model so
// table dispatch delivers reservations exactly — the utilization and
// max-gap oracles check strict inequalities, not tolerances.
//
// Controller-routed scenarios (spares or churn present) replan
// incrementally over a slice memo, so every churn soak exercises
// exactly the pipeline a dense host would use. Churn-free scenarios
// keep the direct System path bit-for-bit.
func Run(sc *Scenario) (*Artifacts, error) {
	return runWith(sc, runKnobs{})
}

// run keeps the historical mutation-smoke signature: an optional
// scheduler wrapper and the UnsafeShedLSFirst switch.
func run(sc *Scenario, wrap func(inner vmm.Scheduler) vmm.Scheduler, shedLSFirst bool) (*Artifacts, error) {
	return runWith(sc, runKnobs{wrap: wrap, shedLSFirst: shedLSFirst})
}

// runKnobs selects run variants for tests: mutation-smoke defect
// switches and planning-path overrides.
type runKnobs struct {
	// wrap installs an intentionally broken scheduler variant between
	// the dispatcher and the machine.
	wrap func(inner vmm.Scheduler) vmm.Scheduler
	// shedLSFirst arms the Controller's UnsafeShedLSFirst defect.
	shedLSFirst bool
	// staleSlice arms the planner's UnsafeStaleSliceReuse defect.
	staleSlice bool
	// scratch disables incremental replanning and the slice memo so
	// every controller plan is computed from scratch.
	scratch bool
}

func runWith(sc *Scenario, k runKnobs) (*Artifacts, error) {
	sys := core.NewSystem(sc.Cores, planner.Options{}, dispatch.Options{})
	churny := len(sc.Spares) > 0 || len(sc.Churn) > 0
	if churny && !k.scratch {
		// Arm incremental replanning (the cache is there for its slice
		// memo) before the initial plan so the controller's very first
		// flush can already diff against it.
		sys.Cache = planner.NewCache(0)
		sys.Incremental = true
	}
	sys.UnsafeStaleSliceReuse = k.staleSlice
	for slot := 0; slot < sc.NumSlots(); slot++ {
		vm := sc.VM(slot)
		id, err := sys.AddVM(core.VMConfig{
			Name: vm.Name, Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: vm.Capped,
			Class: vm.Class,
		})
		if err != nil {
			return nil, fmt.Errorf("verify: %s: %w", sc, err)
		}
		if slot >= len(sc.VMs) {
			// Spares are registered but not part of the initial plan;
			// churn ops activate them through the Controller.
			if err := sys.SetActive(id, false); err != nil {
				return nil, fmt.Errorf("verify: %s: %w", sc, err)
			}
		}
	}
	disp, res, err := sys.BuildDispatcher()
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", sc, err)
	}

	var sched vmm.Scheduler = disp
	if k.wrap != nil {
		sched = k.wrap(disp)
	}
	m := vmm.New(sim.New(sc.Seed), sc.Cores, sched, vmm.NoOverheads())
	tr := trace.New(runRingSize)
	m.SetTracer(tr)
	for slot := 0; slot < sc.NumSlots(); slot++ {
		vm := sc.VM(slot)
		m.AddVCPU(vm.Name, programFor(sc, slot), 256, vm.Capped)
	}
	// Hand the population's tenancy classes to the runtime side channels:
	// the dispatcher orders second-level slack by them, the tracer stamps
	// FlagBestEffort on BE records. All-LS populations install nothing,
	// keeping pre-class runs bit-for-bit.
	var be []bool
	for slot := 0; slot < sc.NumSlots(); slot++ {
		if sc.VM(slot).Class == planner.BE {
			if be == nil {
				be = make([]bool, sc.NumSlots())
			}
			be[slot] = true
		}
	}
	if be != nil {
		disp.SetBestEffort(be)
		tr.SetBestEffort(be)
	}

	art := &Artifacts{
		Scenario:   sc,
		Table:      res.Table,
		Guarantees: res.Guarantees,
		M:          m,
		Dispatcher: disp,
		Sys:        sys,
		Tracer:     tr,
	}

	// Churn scenarios route every mid-run reconfiguration — bursts,
	// emergency replans, scheduled replans — through the transactional
	// Controller. Churn-free scenarios keep the direct System path so
	// their runs stay bit-for-bit identical to earlier generators.
	var ctrl *core.Controller
	if churny {
		ctrl, err = core.NewController(sys, disp, res)
		if err != nil {
			return nil, fmt.Errorf("verify: %s: %w", sc, err)
		}
		ctrl.UnsafeShedLSFirst = k.shedLSFirst
		if !k.scratch {
			// The tracer records each installed epoch's plan origin for
			// the oracles.
			ctrl.Tracer = tr
			ctrl.NowFn = m.Eng.Now
		}
		art.Controller = ctrl
	}
	flush := func(now int64) *core.Transition {
		tr, _ := ctrl.Flush()
		if tr != nil {
			art.Transitions = append(art.Transitions, ChurnTransition{At: now, Tr: tr})
		}
		return tr
	}

	if sc.Faults != nil {
		if _, err := faults.Attach(m, sc.Faults); err != nil {
			return nil, fmt.Errorf("verify: %s: attach faults: %w", sc, err)
		}
		// The control plane reacts to each fail-stop with an emergency
		// replan onto the survivors, like the chaos experiment.
		for _, e := range sc.Faults.Events {
			if e.Kind != faults.KindPCPUFailStop {
				continue
			}
			failedCore := e.Core
			m.Eng.At(e.At+emergencyDelay, func(now int64) {
				if ctrl != nil {
					ctrl.Submit(core.Op{Kind: core.OpFailCore, Core: failedCore})
					if t := flush(now); t != nil && t.Err != nil {
						art.ReplanErr = t.Err
					}
					return
				}
				if _, err := sys.EmergencyReplan(disp, failedCore); err != nil {
					art.ReplanErr = err
				}
			})
		}
	}
	if sc.Replan != nil {
		rp := sc.Replan
		m.Eng.At(rp.At, func(now int64) {
			if ctrl != nil {
				ctrl.Submit(core.Op{
					Kind: core.OpReconfigure, Slot: rp.Slot,
					Util: sc.VMs[rp.Slot].Util, LatencyGoal: rp.NewGoal,
				})
				if t := flush(now); t != nil && t.Err != nil {
					art.PushErr = t.Err
				}
				return
			}
			if err := sys.Reconfigure(rp.Slot, sc.VMs[rp.Slot].Util, rp.NewGoal); err != nil {
				art.PushErr = err
				return
			}
			if _, err := sys.Push(disp); err != nil {
				art.PushErr = err
			}
		})
	}
	for i := 0; i < len(sc.Churn); {
		j := i
		for j < len(sc.Churn) && sc.Churn[j].At == sc.Churn[i].At {
			j++
		}
		burst := sc.Churn[i:j]
		m.Eng.At(burst[0].At, func(now int64) {
			for _, op := range burst {
				kind := core.OpDeactivate
				if op.Activate {
					kind = core.OpActivate
				}
				ctrl.Submit(core.Op{Kind: kind, Slot: op.Slot})
			}
			flush(now)
		})
		i = j
	}

	m.Start()
	m.Run(Horizon)
	m.Stop()
	tr.FlushResidency(Horizon)

	art.FinalTable = disp.ActiveTable()
	art.Live = tr.Metrics()

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return nil, fmt.Errorf("verify: %s: encode trace: %w", sc, err)
	}
	dump, err := trace.Decode(&buf)
	if err != nil {
		return nil, fmt.Errorf("verify: %s: decode trace: %w", sc, err)
	}
	art.Dump = dump
	art.Records = dump.Merged()
	for i := range art.Records {
		if art.Records[i].Type == trace.EvTableSwitch {
			art.Adopted++
		}
	}
	return art, nil
}

// programFor builds the guest program for combined slot i. Blocky
// programs get a per-vCPU seed derived from the scenario seed so runs
// stay deterministic while VMs stay out of lockstep.
func programFor(sc *Scenario, i int) vmm.Program {
	vm := sc.VM(i)
	if vm.Workload == Blocky {
		return workload.StressIO(vm.ComputeNs, vm.BlockNs, 20, sc.Seed*1000+int64(i))
	}
	return workload.CPUHog()
}
