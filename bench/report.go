package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one metric of the contract in BENCHMARK.json. The lists
// below and that file must agree (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
	higher     bool    // true: higher is better
	bound      float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd is what a user of the system sees: how fast placements,
// replans and guest requests go, how many succeed and meet their limit,
// and what they cost in memory. Every one of them exists on every
// workload; what only one workload has (the guests' own latency) is
// per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.20},
	{"op_p50_us", "us", false, 0.20},
	{"slo_pct", "%", true, 0.04},
	{"ok_pct", "%", true, 0.01},
	{"alloc_kb_per_op", "kb", false, 0.05},
	{"allocs_per_op", "count", false, 0.05},
	{"live_heap_mb", "mb", false, 0.20},
}

// spanMetric derives a per-layer time metric from the traced pass: the
// median duration (or self time) of every span with the given name,
// divided by per when one span covers several calls.
type spanMetric struct {
	name, span string
	self       bool
	per        float64
}

var spanMetrics = []spanMetric{
	{"fleet.snapshot_sweep_us", "probe.fleet.snapshot_sweep", false, 1},
	{"fleet.depart_p50_us", "fleet.Depart", false, 1},
	{"fleet.failover_us", "fleet.Failover", false, 1},
	{"core.flush_us", "core.Flush", false, 1},
	{"core.flush_self_us", "core.Flush", true, 1},
	{"core.flush_hit_us", "probe.core.flush_hit", false, 1},
	{"core.recover_us", "core.Recover", false, 1},
	{"planner.scratch_us", "probe.planner.Plan", false, 1},
	{"planner.incremental_us", "probe.planner.PlanIncremental", false, 1},
	{"planner.cache_key_us", "probe.planner.CacheKey", false, 1},
	{"planner.clone_us", "probe.planner.Clone", false, 1},
	{"table.encode_us", "probe.table.AppendEncodedCompact", false, 1},
	{"table.decode_us", "probe.table.DecodeBytes", false, 1},
	{"table.validate_us", "probe.table.Validate", false, 1},
	{"table.check_us", "probe.table.Check", false, 1},
	{"table.lookup_ns", "probe.table.Lookup", false, lookupsPerProbe / 1e3},
	{"journal.append_us", "journal.Append", false, 1},
	{"journal.decode_us", "probe.journal.DecodeAll", false, 1},
	{"journal.file_append_us", "probe.journal.FileStore.Append", false, 1},
	{"dispatch.install_us", "dispatch.PushTable", false, 1},
	{"vmm.slice_us", "vmm.Run", false, 1},
	{"workload.schedule_bursts_us", "workload.ScheduleBursts", false, 1},
}

// perLayer lists every per-layer metric in print order. Time metrics
// come from spans, counters from the product's own Stats, proc.* from
// the runtime.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	higher := map[string]bool{
		"proc.raw_ops_per_s": true, "planner.cache_hit_pct": true, "planner.slice_hit_pct": true,
		"vmm.guest_time_pct": true, "sim.speed_x": true, "workload.completed_pct": true,
	}
	names := []string{
		"proc.peak_rss_mb", "proc.gc_cycles", "proc.gc_cpu_pct", "proc.raw_ops_per_s", "proc.raw_op_p99_us",
		"proc.op_p90_us", "proc.op_p99_us", "proc.op_p999_us", "proc.aux_p50_us", "proc.pass_spread_pct", "proc.trace_overhead_pct",
		"fleet.snapshot_sweep_us", "fleet.attempts_per_place", "fleet.conflicts_per_kop", "fleet.retries_per_kop",
		"fleet.admission_rejects_per_kop", "fleet.slot_rejects_per_kop", "fleet.spare_placements_per_kop",
		"fleet.sheds_per_kop", "fleet.unplaced", "fleet.departs_deferred", "fleet.displaced_per_failover",
		"fleet.depart_p50_us", "fleet.failover_us", "fleet.place_unattributed_us", "fleet.ledger_entries",
		"fleet.history_epochs",
		"core.flush_us", "core.flush_self_us", "core.flush_hit_us", "core.planner_calls_per_flush",
		"core.rollbacks", "core.rejections", "core.ops_coalesced", "core.recover_us", "core.recover_records",
		"planner.scratch_us", "planner.incremental_us", "planner.cache_key_us", "planner.clone_us",
		"planner.cache_hit_pct", "planner.slice_hit_pct", "planner.cache_entries", "planner.cache_bytes_mb",
		"planner.cache_evictions",
		"table.encode_us", "table.decode_us", "table.validate_us", "table.check_us", "table.lookup_ns",
		"table.bytes", "table.slices",
		"journal.append_us", "journal.bytes_per_op", "journal.records", "journal.syncs_per_op",
		"journal.decode_us", "journal.file_append_us",
		"dispatch.install_us", "dispatch.l1_picks_per_req", "dispatch.l2_picks_per_req",
		"dispatch.idle_decisions_per_req", "dispatch.table_switches", "dispatch.deferred_ipis",
		"vmm.slice_us", "vmm.guest_time_pct", "vmm.overhead_time_pct",
		"sim.speed_x",
		"workload.requests", "workload.completed_pct", "workload.schedule_bursts_us", "workload.guest_mean_us", "workload.guest_p50_us",
		"workload.guest_p99_us", "workload.ls_p99_us", "workload.be_p99_us", "workload.guest_max_us",
	}
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unitOf(n), higher: higher[n]}
	}
	return out
}

// unitOf reads a metric's unit off its name's suffix; everything else
// is a count.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ns", "ns"}, {"_pct", "%"}, {"_mb", "mb"}, {"_per_s", "1/s"}, {"speed_x", "x"}, {".bytes", "bytes"}, {".bytes_per_op", "bytes"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// result is one workload's reduced outcome.
type result struct {
	workload  string
	seed      int64
	passes    int
	values    map[string]float64 // every metric computed, end-to-end and per-layer
	samples   map[string]int     // sample counts behind quantile metrics
	attempted int
	failed    int
	correct   bool
	traced    bool
}

// print writes the metrics by name and unit. End-to-end metrics always;
// per-layer ones when the run was traced.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  passes=%d  attempted=%d failed=%d correct=%v\n",
		r.workload, r.seed, r.passes, r.attempted, r.failed, r.correct)
	row := func(d metricDef, gated bool) {
		note := ""
		if n, ok := r.samples[d.name]; ok {
			note = fmt.Sprintf("  n=%d", n)
		}
		if gated {
			note += fmt.Sprintf("  bound=%g%%", d.bound*100)
		}
		fmt.Fprintf(w, "  %-34s %16s %-6s%s\n", d.name, strconv.FormatFloat(r.values[d.name], 'f', -1, 64), d.unit, note)
	}
	for _, d := range endToEnd {
		row(d, true)
	}
	if !r.traced {
		return
	}
	fmt.Fprintf(w, "  -- per layer (traced pass; ungated)\n")
	for _, d := range perLayer {
		row(d, false)
	}
}

// jsonLine is the contract's last line: end-to-end metrics of an
// untraced run, per-layer metrics of a traced one.
func (r *result) jsonLine() string {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, strconv.FormatFloat(r.values[d.name], 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
