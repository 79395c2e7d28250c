package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// Ladder probes fill the rungs that have no seam: the stages inside
// Place and Flush that the harness cannot wrap from outside (snapshot
// sweep, cache key, result clone, table codec, slice lookup). They run
// only on the traced pass, between sampled ops, on copies or on
// harness-owned rigs, so the product's counters — which are compared
// across passes — never see them.

// probeEvery is the sampling stride in measured ops.
const probeEvery = 100

// lookupsPerProbe is how many table lookups one "probe.table.Lookup"
// span covers; a single lookup is below the clock's resolution.
const lookupsPerProbe = 4096

type probe struct {
	rec    *recorder
	slices *planner.SliceCache // the probe's own per-core memo
}

func newProbe(rec *recorder) *probe {
	return &probe{rec: rec, slices: planner.NewSliceCache(0)}
}

func (p *probe) on() bool { return p.rec.tr != nil }

// probeSink keeps probe results observable so the compiler cannot drop
// the probed calls.
var probeSink int

// planner times a scratch plan of specs, an incremental plan of next
// on top of it (the three-slot diff a churn flush sees), and the two
// pieces of cache-hit glue: building the key and cloning a result.
func (p *probe) planner(specs, next []planner.VCPUSpec, cores int) {
	if !p.on() || len(specs) == 0 {
		return
	}
	opts := planner.Options{Cores: cores, Slices: p.slices}
	var res *planner.Result
	var err error
	p.rec.span("probe.planner.Plan", func() { res, err = planner.Plan(specs, opts) })
	if err != nil {
		return
	}
	if len(next) > 0 {
		prev := &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
		p.rec.span("probe.planner.PlanIncremental", func() { _, _ = planner.PlanIncremental(next, opts, prev) })
	}
	p.rec.span("probe.planner.CacheKey", func() { probeSink += len(planner.CacheKey(specs, opts)) })
	p.rec.span("probe.planner.Clone", func() { probeSink += len(res.Clone().Guarantees) })
}

// table times the codec and the checkers on one installed epoch, and a
// block of slice-table lookups.
func (p *probe) table(ep core.Epoch) {
	if !p.on() || ep.Table == nil {
		return
	}
	tbl := ep.Table
	var enc []byte
	p.rec.span("probe.table.AppendEncodedCompact", func() { enc, _ = tbl.AppendEncodedCompact(nil) })
	p.rec.span("probe.table.DecodeBytes", func() { _, _ = table.DecodeBytes(enc) })
	p.rec.span("probe.table.Validate", func() { _ = tbl.Validate() })
	p.rec.span("probe.table.Check", func() { _ = tbl.Check(ep.Guarantees) })
	step := tbl.Len/lookupsPerProbe + 1
	p.rec.span("probe.table.Lookup", func() {
		for i := 0; i < lookupsPerProbe; i++ {
			v, _, _ := tbl.Lookup(i%len(tbl.Cores), int64(i)*step)
			probeSink += v
		}
	})
	p.rec.exact["table.bytes"] = float64(len(enc))
	p.rec.exact["table.slices"] = float64(tbl.SliceCount())
}

// journalDecode times replaying a journal image.
func (p *probe) journalDecode(image []byte) {
	if !p.on() {
		return
	}
	p.rec.span("probe.journal.DecodeAll", func() { _, _ = journal.DecodeAll(image) })
}

// fileAppend times appending one framed record to a real file under
// bench/out, without fsync (SyncOnDemand): the cost of the write path a
// daemon's journal would take. Disk timing is never gated.
func (p *probe) fileAppend(record []byte) {
	if !p.on() || len(record) == 0 {
		return
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, "probe.journal")
	fs, err := journal.OpenFile(path, journal.SyncOnDemand)
	if err != nil {
		return
	}
	defer os.Remove(path)
	defer fs.Close()
	for i := 0; i < 8; i++ {
		p.rec.span("probe.journal.FileStore.Append", func() { _ = fs.Append(record) })
	}
}

// fleetProbe adds the fleet's own rungs: the O(hosts) snapshot sweep a
// placement attempt starts with, and a cache-hit Flush on a rig shaped
// like one fleet host (8 cores, a resident slot, 19 guest slots, a
// discarding sink).
type fleetProbe struct {
	*probe
	hosts []*fleet.Host
	ctrl  *core.Controller
	specs []planner.VCPUSpec
	next  int
}

func newFleetProbe(rec *recorder, a *fleet.Arbiter) *fleetProbe {
	fp := &fleetProbe{probe: newProbe(rec)}
	if !fp.on() {
		return fp
	}
	fp.hosts = a.Hosts()
	sys := core.NewSystem(8, planner.Options{}, dispatch.Options{})
	sys.Cache = planner.NewCache(64)
	resident := core.VMConfig{Name: "sys", Util: planner.Util{Num: 1, Den: 64}, LatencyGoal: 100_000_000, Capped: true}
	if _, err := sys.AddVM(resident); err != nil {
		return fp
	}
	for s := 1; s < 20; s++ {
		cfg := resident
		cfg.Name = fmt.Sprintf("s%d", s)
		cfg.Util = fleetUtils[s%len(fleetUtils)]
		cfg.LatencyGoal = fleetGoals[s%len(fleetGoals)]
		if _, err := sys.AddVM(cfg); err != nil {
			return fp
		}
		// Six resident guests, like a host of the filled fleet.
		if s > 6 {
			_ = sys.SetActive(s, false)
		}
	}
	_, res, err := sys.Plan()
	if err != nil {
		return fp
	}
	ctrl, err := core.NewController(sys, &spanSink{rec: rec, site: "table.PushTable"}, res)
	if err != nil {
		return fp
	}
	ctrl.MaxHistory = 4
	fp.ctrl = ctrl
	fp.specs = []planner.VCPUSpec{{Name: "sys", Util: resident.Util, LatencyGoal: resident.LatencyGoal, Capped: true}}
	for s := 1; s <= 6; s++ {
		fp.specs = append(fp.specs, planner.VCPUSpec{
			Name: fmt.Sprintf("s%d", s), Util: fleetUtils[s%len(fleetUtils)],
			LatencyGoal: fleetGoals[s%len(fleetGoals)], Capped: true,
		})
	}
	// Warm both populations so the timed flushes are cache hits.
	fp.flush(false)
	return fp
}

// flush places a guest into slot 7 of the rig and departs it again —
// the two flushes of a fleet place+depart pair.
func (fp *fleetProbe) flush(timed bool) {
	place := []core.Op{
		{Kind: core.OpReconfigure, Slot: 7, Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 10_000_000, SetClass: true},
		{Kind: core.OpActivate, Slot: 7},
	}
	depart := []core.Op{{Kind: core.OpDeactivate, Slot: 7}}
	for _, ops := range [][]core.Op{place, depart} {
		run := func() {
			fp.ctrl.SubmitBatch(ops)
			fp.rec.span("core.Flush", func() { _, _ = fp.ctrl.Flush() })
		}
		if timed {
			fp.rec.span("probe.core.flush_hit", run)
		} else {
			run()
		}
	}
}

func (fp *fleetProbe) sample() {
	if !fp.on() || fp.ctrl == nil {
		return
	}
	fp.rec.span("probe.fleet.snapshot_sweep", func() {
		for _, h := range fp.hosts {
			probeSink += h.Snapshot().FreeSlots
		}
	})
	fp.flush(true)
	grown := append(append([]planner.VCPUSpec(nil), fp.specs...), planner.VCPUSpec{
		Name: "s7", Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 10_000_000, Capped: true,
	})
	fp.planner(fp.specs, grown, 8)
	// Rotate through the hosts so the codec rungs see the fleet's
	// spread of table shapes.
	h := fp.hosts[fp.next%len(fp.hosts)]
	fp.next += 37
	if hist := h.History(); len(hist) > 0 {
		fp.table(hist[len(hist)-1])
	}
}
