package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestReplicateMin(t *testing.T) {
	mins, ok := replicateMin([][]int64{
		{10, 50, 30, 7},
		{12, 40, 35, 7},
		{11, 45, 29, 900},
	})
	if !ok || !reflect.DeepEqual(mins, []int64{10, 40, 29, 7}) {
		t.Fatalf("replicateMin = %v, %v", mins, ok)
	}
	// One disturbed pass must not move the estimate at all.
	calm := [][]int64{{10, 20, 30}, {10, 20, 30}, {10, 20, 30}}
	noisy := [][]int64{{10, 20, 30}, {9000, 9000, 9000}, {10, 20, 30}}
	a, _ := replicateMin(calm)
	b, _ := replicateMin(noisy)
	if sum(a) != sum(b) {
		t.Fatalf("a disturbed replicate moved the sum: %d vs %d", sum(a), sum(b))
	}
	if _, ok := replicateMin([][]int64{{1, 2}, {1}}); ok {
		t.Fatal("passes of different length must not reduce")
	}
	if mins, ok := replicateMin(nil); !ok || mins != nil {
		t.Fatalf("no passes: %v, %v", mins, ok)
	}
	// The input series are not modified.
	in := [][]int64{{5, 5}, {1, 9}}
	replicateMin(in)
	if in[0][0] != 5 || in[1][1] != 9 {
		t.Fatalf("inputs modified: %v", in)
	}
}

func TestQuantileCarriesSampleCount(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[99-i] = int64(i + 1) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		got := quantileOf(xs, tc.q)
		if got.value != tc.want || got.n != 100 {
			t.Errorf("q%.2f = %v (n=%d), want %v (n=100)", tc.q, got.value, got.n, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantileOf sorted its input in place")
	}
	if got := quantileOf(nil, 0.5); got.n != 0 || got.value != 0 {
		t.Errorf("empty sample: %+v", got)
	}
	if got := quantileOf([]int64{7}, 0.99); got.value != 7 || got.n != 1 {
		t.Errorf("single sample: %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Fatalf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestSpreadAndMedian(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := spreadPct([]float64{95, 100, 105}); got != 10 {
		t.Errorf("spread = %v, want 10", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100) holds Flush [10,90), which holds PushTable [20,30) and
	// Append [40,70); a set-up span of the same name is ignored.
	spans := []span{
		{ID: 1, Parent: 0, Name: "core.Flush", Start: 0, End: 500, Op: -1},
		{ID: 2, Parent: 0, Name: "op", Start: 0, End: 100, Op: 0},
		{ID: 3, Parent: 2, Name: "core.Flush", Start: 10, End: 90, Op: 0},
		{ID: 4, Parent: 3, Name: "table.PushTable", Start: 20, End: 30, Op: 0},
		{ID: 5, Parent: 3, Name: "journal.Append", Start: 40, End: 70, Op: 0},
	}
	self := selfTimes(spans)
	if want := []int64{500, 20, 40, 10, 30}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if got := spanDurations(spans, "core.Flush", false); !reflect.DeepEqual(got, []int64{80}) {
		t.Errorf("Flush durations = %v", got)
	}
	if got := spanDurations(spans, "core.Flush", true); !reflect.DeepEqual(got, []int64{40}) {
		t.Errorf("Flush self = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // a nil tracer records nothing and does not panic
	off.setOp(3)

	tr := newTracer()
	tr.setOp(7)
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	d := tr.begin("d")
	tr.end(d)
	want := []struct {
		name   string
		parent int
	}{{"a", 0}, {"b", 1}, {"c", 1}, {"d", 0}}
	for i, w := range want {
		s := tr.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.ID != i+1 || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
}

func TestPassOrderInterleaves(t *testing.T) {
	got := passOrder(3, 2)
	want := []passSlot{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("passOrder(3,2) = %v", got)
	}
	// Between two replicates of one workload every other workload runs.
	order := passOrder(4, 4)
	last := map[int]int{}
	for i, s := range order {
		if prev, seen := last[s.workload]; seen && i-prev != 4 {
			t.Fatalf("workload %d ran at %d and %d: replicates are not spread out", s.workload, prev, i)
		}
		last[s.workload] = i
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"-trace", "-trace 1"},
		{"--trace 0 -seed 2", "--trace 0 -seed 2"},
		{"-workload x --trace 1", "-workload x --trace 1"},
		{"-trace -seed 2", "-trace 1 -seed 2"},
		{"-seed 2", "-seed 2"},
	} {
		got := strings.Join(normalizeTrace(strings.Fields(tc.in)), " ")
		if got != tc.want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestScale(t *testing.T) {
	if got := (runConfig{seconds: defaultSeconds}).scale(8000); got != 8000 {
		t.Errorf("default run length must not rescale: %d", got)
	}
	if got := (runConfig{seconds: 2 * defaultSeconds}).scale(8000); got != 16000 {
		t.Errorf("double run length: %d", got)
	}
	if got := (runConfig{seconds: 1}).scale(3); got != 1 {
		t.Errorf("never below one op: %d", got)
	}
}

// TestReduceSynthetic drives reduce with hand-made passes: the metrics
// must come from the per-call minima, failures must count against both
// ok_pct and slo_pct, and a pass that disagrees on a counter must be
// refused.
func TestReduceSynthetic(t *testing.T) {
	w := workloadDef{name: "synthetic", op: "op", aux: "aux", sloNs: 100}
	mk := func(op, aux, setup []int64) *recorder {
		r := newRecorder(nil, 0)
		r.meas["op"], r.meas["aux"], r.setup["build"] = op, aux, setup
		r.failed["op"] = []int{1}
		r.exact["sim_requests"] = 48
		r.allocBytes, r.mallocs, r.liveHeap = 4*1024, 8, 3<<20
		return r
	}
	passes := []*recorder{
		mk([]int64{50, 60, 900, 200}, []int64{1000, 3000}, []int64{2e9, 1e9}),
		mk([]int64{70, 55, 80, 900}, []int64{2000, 1500}, []int64{1e9, 3e9}),
	}
	r, err := reduce(w, runConfig{seed: 1, seconds: defaultSeconds}, passes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// minima: op {50,55,80,200}, aux {1000,1500}, setup {1e9,1e9}
	check := func(name string, want float64) {
		t.Helper()
		if got := r.values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("setup_s", 2)
	check("ops_per_s", 4/2885e-9) // op and aux minima together
	check("op_p50_us", 0.055)
	check("proc.op_p90_us", 0.2)
	check("proc.aux_p50_us", 1)
	check("slo_pct", 50)     // 50 and 80 are within 100 ns; 55 failed; 200 is late
	check("ok_pct", 500.0/6) // 6 attempted, 1 failed
	check("alloc_kb_per_op", 1)
	check("allocs_per_op", 2)
	check("live_heap_mb", 3)
	if r.attempted != 6 || r.failed != 1 || r.samples["op_p50_us"] != 4 || r.samples["proc.aux_p50_us"] != 2 {
		t.Errorf("attempted=%d failed=%d samples=%v", r.attempted, r.failed, r.samples)
	}

	passes[1].mallocs = 9
	if _, err := reduce(w, runConfig{seed: 1, seconds: defaultSeconds}, passes, nil); err == nil {
		t.Error("passes that disagree on an allocation count must be refused")
	}
	passes[1].mallocs = 8
	passes[1].exact["sim_requests"] = 49
	if _, err := reduce(w, runConfig{seed: 1, seconds: defaultSeconds}, passes, nil); err == nil {
		t.Error("passes that disagree on an exact metric must be refused")
	}
}

// TestRecorderMemory pins the two things the memory figures must leave
// out: what the harness retained before the pass (earlier passes'
// recorders), and the garbage beginMeasure allocates to stagger the
// collector.
func TestRecorderMemory(t *testing.T) {
	const mb = 1 << 20
	harness := make([]byte, 16*mb) // stands in for earlier passes' series
	r := newRecorder(nil, 0.5)
	rig := make([]byte, 8*mb)
	r.beginMeasure()
	rig[0], harness[0] = 1, 1
	r.endMeasure()
	if got := float64(r.liveHeap) / mb; got < 7.5 || got > 9 {
		t.Errorf("live heap %.2f MB, want the 8 MB rig without the 16 MB the harness held", got)
	}
	if r.allocBytes > mb {
		t.Errorf("%d bytes counted as allocated in an empty measured phase: the stagger garbage leaked in", r.allocBytes)
	}
	if rig[0]+harness[0] != 2 {
		t.Fatal("unreachable")
	}
}

// TestBenchmarkJSONMatches keeps the contract file at the repository
// root and the metric and workload lists in this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.bound > maxBound {
			maxBound = d.bound
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%v)", maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("duplicate metric %s", d.name)
		}
		seen[d.name] = true
	}
	// Every span-derived metric must be a declared per-layer metric.
	for _, sm := range spanMetrics {
		if !seen[sm.name] {
			t.Errorf("span metric %s is not in perLayer", sm.name)
		}
	}
}
