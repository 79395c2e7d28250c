package periodic

import (
	"math/rand"
	"testing"
)

func TestSimulateEDFSingleTask(t *testing.T) {
	ts := TaskSet{{Name: "a", WCET: 3, Deadline: 10, Period: 10}}
	res, err := SimulateEDF(ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []Slot{{0, 3, 0}, {10, 13, 0}}
	if len(res.Slots) != len(want) {
		t.Fatalf("slots = %v, want %v", res.Slots, want)
	}
	for i := range want {
		if res.Slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", res.Slots, want)
		}
	}
	if res.Preemptions != 0 {
		t.Errorf("preemptions = %d, want 0", res.Preemptions)
	}
}

func TestSimulateEDFTwoTasks(t *testing.T) {
	ts := TaskSet{
		{Name: "a", WCET: 2, Deadline: 4, Period: 8},
		{Name: "b", WCET: 4, Deadline: 8, Period: 8},
	}
	res, err := SimulateEDF(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	// EDF runs a first (earlier deadline), then b.
	want := []Slot{{0, 2, 0}, {2, 6, 1}}
	if len(res.Slots) != len(want) {
		t.Fatalf("slots = %v, want %v", res.Slots, want)
	}
	for i := range want {
		if res.Slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", res.Slots, want)
		}
	}
}

func TestSimulateEDFPreemption(t *testing.T) {
	// Long task starts, short-deadline task released mid-way preempts it.
	ts := TaskSet{
		{Name: "long", WCET: 6, Deadline: 20, Period: 20},
		{Name: "short", Offset: 2, WCET: 2, Deadline: 3, Period: 20},
	}
	res, err := SimulateEDF(ts, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []Slot{{0, 2, 0}, {2, 4, 1}, {4, 8, 0}}
	if len(res.Slots) != len(want) {
		t.Fatalf("slots = %v, want %v", res.Slots, want)
	}
	for i := range want {
		if res.Slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", res.Slots, want)
		}
	}
	if res.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", res.Preemptions)
	}
	if res.ContextSwitches != 3 {
		t.Errorf("context switches = %d, want 3", res.ContextSwitches)
	}
}

// TestSimulateEDFAllocatesPerSimulationNotPerJob: pending jobs live by
// value in one heap slice, so simulating eight times the horizon — eight
// times the job releases — costs only the log-growth of the slices, not
// an allocation per job. The planner runs one simulation per core per
// plan.
func TestSimulateEDFAllocatesPerSimulationNotPerJob(t *testing.T) {
	ts := benchSet(8)
	h, err := ts.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(horizon int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SimulateEDF(ts, horizon); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(h), allocs(8*h); eight-one >= 10 {
		t.Errorf("simulating 8H allocates %.0f objects, H %.0f: the difference grows with the jobs released", eight, one)
	}
}

func TestSimulateEDFDeadlineMiss(t *testing.T) {
	ts := TaskSet{
		{Name: "a", WCET: 4, Deadline: 4, Period: 10},
		{Name: "b", WCET: 4, Deadline: 4, Period: 10},
	}
	_, err := SimulateEDF(ts, 10)
	if err == nil {
		t.Fatal("expected deadline miss")
	}
	if _, ok := err.(*DeadlineMissError); !ok {
		t.Fatalf("error type = %T, want *DeadlineMissError", err)
	}
}

func TestSimulateEDFValidatesInput(t *testing.T) {
	if _, err := SimulateEDF(TaskSet{{Name: "bad", WCET: 0, Deadline: 1, Period: 1}}, 10); err == nil {
		t.Error("invalid task must be rejected")
	}
	if _, err := SimulateEDF(TaskSet{{Name: "a", WCET: 1, Deadline: 2, Period: 2}}, 0); err == nil {
		t.Error("non-positive horizon must be rejected")
	}
}

func TestSimulateEDFIdleGaps(t *testing.T) {
	ts := TaskSet{{Name: "a", WCET: 1, Deadline: 10, Period: 10}}
	res, err := SimulateEDF(ts, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slots) != 3 {
		t.Fatalf("slots = %v, want 3 slots", res.Slots)
	}
	for i, s := range res.Slots {
		if s.Start != int64(i)*10 || s.End != int64(i)*10+1 {
			t.Errorf("slot %d = %v", i, s)
		}
	}
}

// Property: over one hyperperiod of a schedulable synchronous set, every
// task receives exactly (H/T)*C service, slots never overlap, and slot
// boundaries are monotone.
func TestSimulateEDFInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for i := 0; i < 300; i++ {
		ts := randomTaskSet(rng, 1+rng.Intn(5), 120)
		if !ts.EDFSchedulable() {
			continue
		}
		h, err := ts.Hyperperiod()
		if err != nil || h > 2_000_000 {
			continue
		}
		res, err := SimulateEDF(ts, h)
		if err != nil {
			t.Fatalf("schedulable set %v missed a deadline: %v", ts, err)
		}
		checked++
		var prevEnd int64 = -1
		service := make([]int64, len(ts))
		for _, s := range res.Slots {
			if s.Start < prevEnd {
				t.Fatalf("overlapping slots in %v", res.Slots)
			}
			if s.End <= s.Start {
				t.Fatalf("empty slot %v", s)
			}
			prevEnd = s.End
			service[s.Task] += s.Len()
		}
		for j, tk := range ts {
			want := (h / tk.Period) * tk.WCET
			if service[j] != want {
				t.Fatalf("task %s service = %d, want %d (set %v)", tk.Name, service[j], want, ts)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d schedulable sets checked", checked)
	}
}

func TestServicePerWindow(t *testing.T) {
	ts := TaskSet{{Name: "a", WCET: 3, Deadline: 10, Period: 10}}
	good := []Slot{{0, 3, 0}, {10, 13, 0}}
	if _, _, _, ok := ServicePerWindow(ts, good, 20); !ok {
		t.Error("good table flagged as violating")
	}
	short := []Slot{{0, 3, 0}, {10, 12, 0}}
	task, win, got, ok := ServicePerWindow(ts, short, 20)
	if ok {
		t.Fatal("short table should violate")
	}
	if task != 0 || win != 10 || got != 2 {
		t.Errorf("violation = (task %d, window %d, got %d)", task, win, got)
	}
	// Table length not a multiple of the period is a violation.
	if _, _, _, ok := ServicePerWindow(ts, good, 15); ok {
		t.Error("non-multiple table length should be rejected")
	}
}

func TestMaxBlackout(t *testing.T) {
	// Task runs [0,3) and [10,13) in a 20-long table. Gaps: [3,10) = 7
	// within the cycle and [13, 20+0) = 7 across the wrap.
	slots := []Slot{{0, 3, 0}, {10, 13, 0}}
	if got := MaxBlackout(slots, 0, 20); got != 7 {
		t.Errorf("MaxBlackout = %d, want 7", got)
	}
	// Worst case across the wrap: run early in the cycle only.
	slots = []Slot{{0, 3, 0}}
	if got := MaxBlackout(slots, 0, 20); got != 17 {
		t.Errorf("MaxBlackout = %d, want 17", got)
	}
	// Task that never runs.
	if got := MaxBlackout(slots, 5, 20); got != 20 {
		t.Errorf("MaxBlackout(absent task) = %d, want 20", got)
	}
}

// Property: for schedulable implicit-deadline sets, the blackout of every
// task in the simulated table is bounded by 2*(T-C), the bound from the
// paper (Sec. 5) that drives period selection.
func TestBlackoutBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	checked := 0
	for i := 0; i < 300; i++ {
		// Implicit deadlines only.
		ts := randomTaskSet(rng, 1+rng.Intn(4), 120)
		for j := range ts {
			ts[j].Deadline = ts[j].Period
		}
		if !ts.EDFSchedulable() {
			continue
		}
		h, err := ts.Hyperperiod()
		if err != nil || h > 2_000_000 {
			continue
		}
		res, err := SimulateEDF(ts, h)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for j, tk := range ts {
			bound := 2 * (tk.Period - tk.WCET)
			if bound == 0 {
				bound = 0 // C == T: task always runs
			}
			if got := MaxBlackout(res.Slots, j, h); got > bound {
				t.Fatalf("task %v blackout %d > bound %d (set %v)", tk, got, bound, ts)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d sets checked", checked)
	}
}
