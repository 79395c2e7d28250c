package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/journal"
	"tableau/internal/planner"
)

// replanParams sizes host-replan-192: one dense host whose population
// is churned by small batches, every batch a real planner run.
type replanParams struct {
	name       string
	cores, vms int
	warm       int // flushes before measuring
	flushes    int // measured flushes at the default run length
	floor      int // fewest resident VMs the churn leaves
	recovEvery int // flushes between Recover rounds
}

var hostReplan192 = replanParams{
	name: "host-replan-192", cores: 16, vms: 192, floor: 168,
	warm: 400, flushes: 900, recovEvery: 100,
}

const replanOp = "core.SubmitBatch+Flush"

var replanGoals = []int64{5_000_000, 10_000_000, 20_000_000}

func (p replanParams) spec(slot int) planner.VCPUSpec {
	return planner.VCPUSpec{
		Name: fmt.Sprintf("vm%d", slot), Util: planner.Util{Num: 1, Den: 16},
		LatencyGoal: replanGoals[slot%len(replanGoals)], Capped: true,
	}
}

// specsAround returns the planner inputs on either side of a batch:
// rest is the resident population without the batch's slots, and the
// batch's slots are resident before it if it deactivates them, after it
// if it activates them. Specs are in slot order, as core.System builds
// them.
func (p replanParams) specsAround(rest []int, batch []core.Op) (before, after []planner.VCPUSpec) {
	inBefore, inAfter := make([]bool, p.vms), make([]bool, p.vms)
	for _, slot := range rest {
		inBefore[slot], inAfter[slot] = true, true
	}
	for _, o := range batch {
		inBefore[o.Slot], inAfter[o.Slot] = o.Kind == core.OpDeactivate, o.Kind == core.OpActivate
	}
	for slot := 0; slot < p.vms; slot++ {
		if inBefore[slot] {
			before = append(before, p.spec(slot))
		}
		if inAfter[slot] {
			after = append(after, p.spec(slot))
		}
	}
	return before, after
}

func (p replanParams) run(cfg runConfig, rec *recorder) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	flushes := cfg.scale(p.flushes)

	sink := &spanSink{rec: rec, site: "table.PushTable"}
	store := &spanStore{rec: rec, inner: journal.NewMemStore()}
	var ctrl *core.Controller
	var cache *planner.Cache
	var buildErr error
	rec.call("core.NewController", func() bool {
		sys := core.NewSystem(p.cores, planner.Options{}, dispatch.Options{})
		cache = planner.NewCache(0)
		sys.Cache = cache
		sys.Incremental = true
		for slot := 0; slot < p.vms; slot++ {
			sp := p.spec(slot)
			if _, buildErr = sys.AddVM(core.VMConfig{Name: sp.Name, Util: sp.Util, LatencyGoal: sp.LatencyGoal, Capped: true}); buildErr != nil {
				return false
			}
		}
		var res *planner.Result
		if _, res, buildErr = sys.Plan(); buildErr != nil {
			return false
		}
		if ctrl, buildErr = core.NewController(sys, sink, res); buildErr != nil {
			return false
		}
		ctrl.MaxHistory = 64
		buildErr = ctrl.AttachJournal(journal.NewWriter(store))
		return buildErr == nil
	})
	if buildErr != nil {
		return fmt.Errorf("%s: building the host: %w", p.name, buildErr)
	}
	defer ctrl.Close()

	// The client's view of the host: which slots are resident.
	on := make([]int, p.vms)
	for i := range on {
		on[i] = i
	}
	var off []int
	rec.reserve(replanOp, flushes)
	rec.reserve("core.Recover", flushes/p.recovEvery+1)
	pr := newProbe(rec)
	var ct0 core.Stats
	var cs0 planner.CacheStats
	var store0 spanStore
	var pushes0 int64
	ops := make([]core.Op, 0, 3)

	for i := 0; i < p.warm+flushes; i++ {
		if i == p.warm {
			ct0, cs0, store0, pushes0 = ctrl.ControllerStats(), cache.FullStats(), *store, sink.pushes
			rec.beginMeasure()
		}
		op := i - p.warm
		rec.tr.setOp(op)

		// Three distinct random slots change state. The host is kept dense
		// — between floor and all vms resident — which is both the paper's
		// regime and a band in which the planner never refuses a population
		// (see README.md, "Known product failure"). Each toggle activates
		// with the share of the vms-floor places above the floor that are
		// empty. That walk reverts to the middle of the band within a few
		// flushes, so how full the host is, and with it plan size and heap,
		// depends little on the seed; an unbiased walk wanders for hundreds.
		ops = ops[:0]
		resident := len(on)
		for k := 0; k < 3; k++ {
			if len(off) > 0 && rng.Intn(p.vms-p.floor) < p.vms-resident {
				j := rng.Intn(len(off))
				ops = append(ops, core.Op{Kind: core.OpActivate, Slot: off[j]})
				off[j] = off[len(off)-1]
				off = off[:len(off)-1]
				resident++
			} else {
				j := rng.Intn(len(on))
				ops = append(ops, core.Op{Kind: core.OpDeactivate, Slot: on[j]})
				on[j] = on[len(on)-1]
				on = on[:len(on)-1]
				resident--
			}
		}
		if op >= 0 && op%probeEvery == 0 && pr.on() {
			// on/off currently hold the population minus the drawn slots.
			before, after := p.specsAround(on, ops)
			pr.planner(before, after, p.cores)
			pr.table(ctrl.Epoch())
		}

		var tr *core.Transition
		var err error
		rec.call(replanOp, func() bool {
			rec.span("core.SubmitBatch", func() { ctrl.SubmitBatch(ops) })
			rec.span("core.Flush", func() { tr, err = ctrl.Flush() })
			return err == nil && tr != nil && tr.Version != 0 && len(tr.Rejected) == 0
		})
		// The client's view follows what committed, so a rollback or a
		// rejection leaves it in step with the host.
		for _, o := range ops {
			committed := false
			if tr != nil && !tr.RolledBack {
				for _, c := range tr.Committed {
					committed = committed || (c.Kind == o.Kind && c.Slot == o.Slot)
				}
			}
			if (o.Kind == core.OpActivate) == committed {
				on = append(on, o.Slot)
			} else {
				off = append(off, o.Slot)
			}
		}

		if op >= 0 && (op+1)%p.recovEvery == 0 {
			image, err := store.Load()
			if err != nil {
				return fmt.Errorf("%s: loading the journal image: %w", p.name, err)
			}
			from := journal.NewMemStoreFrom(image)
			var rc *core.Controller
			var rep *core.RecoveryReport
			rec.call("core.Recover", func() bool {
				rc, _, rep, err = core.Recover(from, core.RecoverOptions{
					MaxHistory: 64, Incremental: true, Sink: &spanSink{rec: rec, site: "table.PushTable"},
				})
				return err == nil
			})
			if err != nil {
				return fmt.Errorf("%s: recovery at flush %d: %w", p.name, op, err)
			}
			if live := ctrl.Epoch(); rep.RecoveredVersion != live.Version || !bytes.Equal(rep.RecoveredBytes, live.Bytes) {
				return fmt.Errorf("%s: recovery at flush %d resumed on version %d, not bit-identical to live version %d",
					p.name, op, rep.RecoveredVersion, live.Version)
			}
			rec.exact["core.recover_records"] = float64(rep.Replayed)
			_ = rc.Close() // the copy's journal is an in-memory image
			pr.journalDecode(image)
			pr.fileAppend(store.last)
			// Rotate: a fresh store, re-based on the current epoch.
			store.inner = journal.NewMemStore()
			rec.span("core.AttachJournal", func() { err = ctrl.AttachJournal(journal.NewWriter(store)) })
			if err != nil {
				return fmt.Errorf("%s: rotating the journal: %w", p.name, err)
			}
		}
	}
	rec.endMeasure()
	rec.tr.setOp(-1)

	ep := ctrl.Epoch()
	if err := ep.Table.Check(ep.Guarantees); err != nil {
		return fmt.Errorf("%s: final epoch %d fails its guarantees: %w", p.name, ep.Version, err)
	}

	ct, cs := ctrl.ControllerStats(), cache.FullStats()
	x := rec.exact
	n := float64(ct.Flushes - ct0.Flushes)
	x["core.planner_calls_per_flush"] = float64(ct.PlannerCalls-ct0.PlannerCalls) / n
	x["core.rollbacks"] = float64(ct.Rollbacks - ct0.Rollbacks)
	x["core.rejections"] = float64(ct.Rejections - ct0.Rejections)
	x["core.ops_coalesced"] = float64(ct.OpsCoalesced - ct0.OpsCoalesced)
	cacheExact(x, cs0, cs)
	x["journal.records"] = float64(store.appends - store0.appends)
	x["journal.bytes_per_op"] = float64(store.bytes-store0.bytes) / n
	x["journal.syncs_per_op"] = float64(store.syncs-store0.syncs) / n
	x["table.installs"] = float64(sink.pushes - pushes0)
	x["table.bytes"] = float64(len(ep.Bytes))
	x["table.slices"] = float64(ep.Table.SliceCount())
	return nil
}
