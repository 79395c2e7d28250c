package main

import (
	"fmt"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/stats"
	"tableau/internal/vmm"
	"tableau/internal/workload"
)

// guestParams sizes guest-serve-48: a simulated 12-core host serving
// open-loop bursty request streams through the real dispatcher, with a
// control plane replanning underneath it.
type guestParams struct {
	name           string
	cores          int
	active, spares int
	setupNs        int64 // simulated time before measuring
	measuredNs     int64 // measured simulated time at the default run length
	sliceNs        int64 // simulated time one op (Machine.Run) advances
	churnNs        int64 // simulated time between control-plane flushes
	windowNs       int64 // arrivals are generated one window ahead
	drainNs        int64 // simulated time allowed for the backlog to clear
}

var guestServe48 = guestParams{
	name: "guest-serve-48", cores: 12, active: 48, spares: 4,
	setupNs: 500_000_000, measuredNs: 3_000_000_000,
	sliceNs: 250_000, churnNs: 100_000_000, windowNs: 250_000_000,
	drainNs: 500_000_000,
}

const guestChurn = "core.SubmitBatch+Flush"

func (p guestParams) run(cfg runConfig, rec *recorder) error {
	measuredNs := int64(cfg.scale(int(p.measuredNs/p.windowNs))) * p.windowNs
	horizon := p.setupNs + measuredNs
	n := p.active + p.spares

	var (
		m       *vmm.Machine
		disp    *dispatch.Dispatcher
		ctrl    *core.Controller
		servers = make([]*workload.SLOServer, n)
		be      = make([]bool, n)
		err     error
	)
	sink := &spanSink{rec: rec, site: "dispatch.PushTable"}
	rec.call("vmm.New+core.NewController", func() bool {
		sys := core.NewSystem(p.cores, planner.Options{}, dispatch.Options{})
		for slot := 0; slot < n; slot++ {
			c := core.VMConfig{Name: fmt.Sprintf("g%d", slot), Util: planner.Util{Num: 1, Den: 5}, LatencyGoal: 20_000_000}
			if slot%4 == 3 {
				c.Class = planner.BE
				be[slot] = true
			}
			if _, err = sys.AddVM(c); err != nil {
				return false
			}
			if slot >= p.active {
				if err = sys.SetActive(slot, false); err != nil {
					return false
				}
			}
		}
		var res *planner.Result
		if disp, res, err = sys.BuildDispatcher(); err != nil {
			return false
		}
		m = vmm.New(sim.New(cfg.seed), p.cores, disp, vmm.Overheads("tableau", 16))
		for slot := range servers {
			srv := &workload.SLOServer{Cost: 20_000, SLO: 10_000_000}
			servers[slot] = srv
			// Uncapped: the reservation is the floor, bursts ride the
			// second-level scheduler.
			srv.Bind(m.AddVCPU(fmt.Sprintf("g%d", slot), srv.Program(), 256, false))
		}
		disp.SetBestEffort(be)
		sink.inner = disp
		if ctrl, err = core.NewController(sys, sink, res); err != nil {
			return false
		}
		m.Start()
		return true
	})
	if err != nil {
		return fmt.Errorf("%s: building the host: %w", p.name, err)
	}
	defer ctrl.Close()

	ops := int(measuredNs / p.sliceNs)
	rec.reserve("vmm.Run", ops)
	rec.reserve(guestChurn, int(measuredNs/p.churnNs)+1)
	pr := newProbe(rec)
	var scheduled, completed0 int64
	var ds0 dispatch.Stats
	spareOn := make([]bool, p.spares)
	churns := 0
	completed := func() int64 {
		var c int64
		for _, s := range servers[:p.active] {
			c += s.Completed()
		}
		return c
	}

	for t := int64(0); t < horizon; t += p.sliceNs {
		if t == p.setupNs {
			completed0, ds0 = completed(), disp.Stats()
			rec.beginMeasure()
		}
		op := -1
		if t >= p.setupNs {
			op = int((t - p.setupNs) / p.sliceNs)
		}
		rec.tr.setOp(op)
		if t%p.windowNs == 0 {
			// Open loop: the next window's arrivals are queued at their
			// intended times now, whatever state the servers are in. Spares
			// take no load; they exist to be toggled.
			w := t / p.windowNs
			span := p.windowNs
			if t+span > horizon {
				span = horizon - t
			}
			rec.span("workload.ScheduleBursts", func() {
				for slot, srv := range servers[:p.active] {
					scheduled += int64(workload.ScheduleBursts(m, srv, t, span,
						2_000, 20_000, 20_000_000, 10_000_000,
						cfg.seed*1_000_003+w*1_009+int64(slot)))
				}
			})
		}
		if t > 0 && t%p.churnNs == 0 {
			k := churns % p.spares
			churns++
			kind := core.OpActivate
			if spareOn[k] {
				kind = core.OpDeactivate
			}
			batch := []core.Op{{Kind: kind, Slot: p.active + k}}
			rec.call(guestChurn, func() bool {
				rec.span("core.SubmitBatch", func() { ctrl.SubmitBatch(batch) })
				var tr *core.Transition
				var ferr error
				rec.span("core.Flush", func() { tr, ferr = ctrl.Flush() })
				ok := ferr == nil && tr != nil && tr.Version != 0 && len(tr.Rejected) == 0
				if ok {
					spareOn[k] = !spareOn[k]
				}
				return ok
			})
			if op >= 0 {
				pr.table(ctrl.Epoch())
			}
		}
		rec.call("vmm.Run", func() bool { m.Run(t + p.sliceNs); return true })
	}
	served := completed() - completed0
	ds := disp.Stats()
	rec.endMeasure()
	rec.tr.setOp(-1)

	// Nothing may be lost: what was not served by the horizon is
	// backlog, and with no further arrivals the backlog must drain.
	backlog := scheduled - completed()
	m.Run(horizon + p.drainNs)
	m.Stop()
	if got := completed(); backlog < 0 || got != scheduled {
		return fmt.Errorf("%s: %d requests scheduled, %d completed after the drain (backlog at the horizon %d)",
			p.name, scheduled, got, backlog)
	}

	all, ls, bes := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	var met int64
	for slot, s := range servers[:p.active] {
		all.Merge(s.Latencies())
		if be[slot] {
			bes.Merge(s.Latencies())
		} else {
			ls.Merge(s.Latencies())
		}
		met += s.SLOMet()
	}
	x := rec.exact
	x["requests_served"] = float64(served)
	x["guest_scheduled"] = float64(scheduled)
	x["guest_slo_met"] = float64(met)
	x["workload.guest_mean_us"] = all.Mean() / 1e3
	x["workload.guest_p50_us"] = float64(all.Quantile(0.50)) / 1e3
	x["workload.guest_p99_us"] = float64(all.P99()) / 1e3
	x["guest_samples"] = float64(all.Count())
	x["sim_ns"] = float64(measuredNs)
	x["workload.requests"] = float64(scheduled)
	x["workload.completed_pct"] = 100 * float64(scheduled-backlog) / float64(scheduled)
	x["workload.ls_p99_us"] = float64(ls.P99()) / 1e3
	x["workload.be_p99_us"] = float64(bes.P99()) / 1e3
	x["workload.guest_max_us"] = float64(all.Max()) / 1e3
	req := float64(served)
	x["dispatch.l1_picks_per_req"] = float64(ds.TableDispatches-ds0.TableDispatches) / req
	x["dispatch.l2_picks_per_req"] = float64(ds.SecondLevelDispatches-ds0.SecondLevelDispatches) / req
	x["dispatch.idle_decisions_per_req"] = float64(ds.IdleDecisions-ds0.IdleDecisions) / req
	x["dispatch.table_switches"] = float64(ds.TableSwitches - ds0.TableSwitches)
	x["dispatch.deferred_ipis"] = float64(ds.DeferredIPIs - ds0.DeferredIPIs)
	coreNs := float64(horizon+p.drainNs) * float64(p.cores)
	x["vmm.guest_time_pct"] = 100 * float64(m.GuestTime()) / coreNs
	x["vmm.overhead_time_pct"] = 100 * float64(m.OverheadTime()) / coreNs
	ct := ctrl.ControllerStats()
	x["core.planner_calls_per_flush"] = float64(ct.PlannerCalls) / float64(ct.Flushes)
	x["core.rollbacks"] = float64(ct.Rollbacks)
	x["core.rejections"] = float64(ct.Rejections)
	x["core.ops_coalesced"] = float64(ct.OpsCoalesced)
	return nil
}
