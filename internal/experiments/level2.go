package experiments

import (
	"fmt"

	"tableau/internal/planner"
	"tableau/internal/workload"
)

// Level2Share reproduces the Sec. 7.4 trace analysis: with the web
// workload fixed at 700 req/s in the uncapped scenario, what fraction
// of the scheduling decisions that dispatched the vantage VM were made
// by the second-level round-robin scheduler rather than the table? The
// paper observed over 85%.
type Level2Share struct {
	TableDispatches   int64
	SecondLevel       int64
	Fraction          float64
	AchievedRPS       float64
	TotalL2Dispatches int64
}

// RunLevel2Share runs the trace experiment.
func RunLevel2Share(mode Mode) (Level2Share, error) {
	srv := NewWebServer()
	sc, err := Build(ScenarioConfig{
		Scheduler:  Tableau,
		Capped:     false,
		Background: BGIO,
		Seed:       23,
	}, srv.Program())
	if err != nil {
		return Level2Share{}, err
	}
	srv.Bind(sc.Vantage)
	duration := int64(2_000_000_000)
	if mode == Full {
		duration = 10_000_000_000
	}
	srv.CountUntil = duration
	sc.M.Start()
	workload.RunOpenLoop(sc.M, srv, 0, 700, duration, 100*KiB)
	sc.M.Run(duration + 200_000_000)
	sc.M.Stop()
	st := sc.Dispatcher.Stats()
	l1 := st.PerVCPUTable[sc.Vantage.ID]
	l2 := st.PerVCPUSecond[sc.Vantage.ID]
	frac := 0.0
	if l1+l2 > 0 {
		frac = float64(l2) / float64(l1+l2)
	}
	return Level2Share{
		TableDispatches:   l1,
		SecondLevel:       l2,
		Fraction:          frac,
		AchievedRPS:       float64(srv.CompletedInWindow()) / (float64(duration) / 1e9),
		TotalL2Dispatches: st.SecondLevelDispatches,
	}, nil
}

// Level2Result renders the experiment. The single cell still goes
// through the worker pool so every driver shares one execution path.
func Level2Result(mode Mode) (*Result, error) {
	shares, err := Collect(1, func(int) (Level2Share, error) {
		return RunLevel2Share(mode)
	})
	if err != nil {
		return nil, err
	}
	s := shares[0]
	return &Result{
		Name:   "level2",
		Title:  "Share of vantage-VM dispatches made by the second-level scheduler (uncapped, 700 req/s, 100 KiB)",
		Header: []string{"table_dispatches", "second_level_dispatches", "second_level_share", "achieved_rps"},
		Rows: [][]string{{
			itoa(s.TableDispatches),
			itoa(s.SecondLevel),
			fmt.Sprintf("%.1f%%", s.Fraction*100),
			ftoa(s.AchievedRPS),
		}},
		Note: "Paper: over 85% of the decisions dispatching the vantage VM came from the level-2 round-robin scheduler.",
	}, nil
}

// AblationPoint summarizes one planner configuration on one workload.
type AblationPoint struct {
	Workload      string
	Config        string
	Planned       bool
	Stage         planner.Stage
	Splits        int
	Preempt       int
	CtxSw         int
	SwitchesSaved int
}

// RunAblation exercises the planner's three-stage progression (Sec. 5)
// on workloads of increasing difficulty, with the later stages
// selectively disabled, reporting which configurations succeed and at
// what preemption cost. This quantifies the design decision to try
// partitioning first and fall back only when needed.
func RunAblation() []AblationPoint {
	type wl struct {
		name  string
		specs []planner.VCPUSpec
		cores int
	}
	mk := func(name string, cores int, utils []planner.Util) wl {
		var specs []planner.VCPUSpec
		for i, u := range utils {
			specs = append(specs, planner.VCPUSpec{
				Name:        fmt.Sprintf("%s%d", name, i),
				Util:        u,
				LatencyGoal: 50_000_000,
			})
		}
		return wl{name: name, specs: specs, cores: cores}
	}
	u := func(n, d int64) planner.Util { return planner.Util{Num: n, Den: d} }
	// mixed uses diverse utilizations and latency goals, the shape where
	// EDF preemption remnants give the peephole pass room to work.
	mixed := wl{name: "mixed", cores: 2}
	mixedGoals := []int64{5, 30, 60, 100, 50, 80}
	for i, uu := range []planner.Util{u(1, 2), u(1, 4), u(1, 8), u(1, 8), u(1, 4), u(1, 3)} {
		mixed.specs = append(mixed.specs, planner.VCPUSpec{
			Name:        fmt.Sprintf("mixed%d", i),
			Util:        uu,
			LatencyGoal: mixedGoals[i] * 1_000_000,
		})
	}
	workloads := []wl{
		mk("easy", 4, []planner.Util{u(1, 4), u(1, 4), u(1, 4), u(1, 4), u(1, 4), u(1, 4), u(1, 4), u(1, 4)}),
		mixed,
		mk("tight", 3, []planner.Util{u(3, 5), u(3, 5), u(3, 5), u(3, 5)}),
		// Fully-utilized system whose per-core slack is too small for
		// enforceable C=D pieces: only the optimal cluster scheduler
		// can place the last task (the paper's "pathological" case).
		mk("pathological", 2, []planner.Util{u(199, 200), u(199, 200), u(1, 100)}),
	}
	configs := []struct {
		name string
		opts planner.Options
	}{
		{"partition-only", planner.Options{DisableSplitting: true, DisableClustering: true}},
		{"partition+split", planner.Options{DisableClustering: true}},
		{"full", planner.Options{}},
		{"full+peephole", planner.Options{Peephole: true}},
	}
	var out []AblationPoint
	for _, w := range workloads {
		for _, c := range configs {
			opts := c.opts
			opts.Cores = w.cores
			// Through the shared cache: the ablation's own keys are all
			// distinct (every point is a different config), but repeated
			// runs in one process hit, and the counters feed the report.
			res, _, err := PlannerCache.Plan(w.specs, opts)
			p := AblationPoint{Workload: w.name, Config: c.name, Planned: err == nil}
			if err == nil {
				p.Stage = res.Stage
				p.Splits = len(res.Splits)
				p.Preempt = res.Preemptions
				p.CtxSw = res.ContextSwitches
				p.SwitchesSaved = res.SwitchesSaved
			}
			out = append(out, p)
		}
	}
	return out
}

// AblationResult renders the ablation, including the process-wide
// planner-cache counters (Sec. 7.1): every Tableau scenario build,
// sweep point, and ablation config in this process plans through the
// shared PlannerCache, so the counters show how much table generation
// the cache absorbed across the whole experiment run.
func AblationResult() *Result {
	pts := RunAblation()
	hits, misses := PlannerCache.Stats()
	r := &Result{
		Name:   "ablation",
		Title:  "Planner stage ablation: which table-generation techniques are needed",
		Header: []string{"workload", "config", "planned", "stage", "splits", "preemptions", "ctx_switches", "peephole_saved"},
		Note: "The paper expects partitioning to suffice for regular cloud workloads, C=D splitting for tight packings, and cluster scheduling only for pathological cases; full+peephole adds the Sec. 5 context-switch reduction extension. " +
			fmt.Sprintf("Sec. 7.1 table cache this process: %d hits, %d misses.", hits, misses),
	}
	for _, p := range pts {
		stage, splits, pre, ctx, saved := "-", "-", "-", "-", "-"
		if p.Planned {
			stage = p.Stage.String()
			splits = fmt.Sprintf("%d", p.Splits)
			pre = fmt.Sprintf("%d", p.Preempt)
			ctx = fmt.Sprintf("%d", p.CtxSw)
			saved = fmt.Sprintf("%d", p.SwitchesSaved)
		}
		r.Rows = append(r.Rows, []string{p.Workload, p.Config, fmt.Sprintf("%v", p.Planned), stage, splits, pre, ctx, saved})
	}
	return r
}
