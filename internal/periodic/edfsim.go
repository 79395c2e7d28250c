package periodic

import "fmt"

// A Slot is a half-open interval [Start, End) during which a single task
// executes on one processor. Task is an index into the simulated task
// set; the special value IdleTask marks idle time.
type Slot struct {
	Start int64
	End   int64
	Task  int
}

// IdleTask marks a slot during which the processor is idle.
const IdleTask = -1

// Len returns the slot length.
func (s Slot) Len() int64 { return s.End - s.Start }

// EDFResult is the outcome of a uniprocessor EDF simulation.
type EDFResult struct {
	// Slots lists the busy intervals in increasing time order. Adjacent
	// slots of the same task are merged; idle time is omitted.
	Slots []Slot
	// Preemptions counts how many times a partially-executed job was
	// descheduled in favor of another job.
	Preemptions int
	// ContextSwitches counts task-to-different-task transitions.
	ContextSwitches int
}

// edfJob is one pending job inside the simulator.
type edfJob struct {
	task        int
	release     int64
	absDeadline int64
	remaining   int64
	started     bool
}

// edfHeap is a binary min-heap of pending jobs, held by value so a
// release costs no allocation, ordered by (absolute deadline, release,
// task index). A task releases one job per instant, so the key is unique
// per job and the pop order — and with it the whole simulation — is
// fully deterministic.
type edfHeap []edfJob

func (h edfHeap) less(i, j int) bool {
	if h[i].absDeadline != h[j].absDeadline {
		return h[i].absDeadline < h[j].absDeadline
	}
	if h[i].release != h[j].release {
		return h[i].release < h[j].release
	}
	return h[i].task < h[j].task
}

func (h *edfHeap) push(j edfJob) {
	*h = append(*h, j)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the top job.
func (h *edfHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
}

// DeadlineMissError reports the first deadline miss encountered by an EDF
// simulation.
type DeadlineMissError struct {
	Task        int
	Name        string
	AbsDeadline int64
	FinishBound int64 // earliest the job could have finished
}

func (e *DeadlineMissError) Error() string {
	return fmt.Sprintf("periodic: EDF deadline miss: task %d (%s) deadline %d, cannot finish before %d",
		e.Task, e.Name, e.AbsDeadline, e.FinishBound)
}

// SimulateEDF runs a preemptive earliest-deadline-first schedule of the
// task set on one processor over [0, horizon) and returns the resulting
// slots. Jobs release at Offset + k*Period; ties are broken
// deterministically. If any job misses its deadline a DeadlineMissError
// is returned. Jobs still incomplete at the horizon are not an error if
// their deadlines lie beyond the horizon; the caller is expected to pass
// a horizon equal to the hyperperiod so the schedule can repeat
// cyclically.
func SimulateEDF(ts TaskSet, horizon int64) (*EDFResult, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("periodic: non-positive horizon %d", horizon)
	}

	res := &EDFResult{}
	var ready edfHeap

	// nextRel[i] is the next release time of task i (or >= horizon when
	// done releasing within the window).
	nextRel := make([]int64, len(ts))
	for i, tk := range ts {
		nextRel[i] = tk.Offset
	}
	earliestRelease := func() int64 {
		e := horizon
		for _, r := range nextRel {
			if r < e {
				e = r
			}
		}
		return e
	}
	releaseUpTo := func(t int64) {
		for i := range ts {
			for nextRel[i] <= t && nextRel[i] < horizon {
				ready.push(edfJob{
					task:        i,
					release:     nextRel[i],
					absDeadline: nextRel[i] + ts[i].Deadline,
					remaining:   ts[i].WCET,
				})
				nextRel[i] += ts[i].Period
			}
		}
	}

	var t int64
	lastTask := IdleTask
	for t < horizon {
		releaseUpTo(t)
		if len(ready) == 0 {
			nxt := earliestRelease()
			if nxt >= horizon {
				break
			}
			t = nxt
			lastTask = IdleTask
			continue
		}
		// The top job, updated in place; the pointer is dead once a
		// release may have grown the heap.
		job := &ready[0]
		// Feasibility check: the job must be able to finish by its
		// deadline even if it runs uninterrupted from now on. Under EDF
		// this detects every miss at the earliest possible moment.
		if t+job.remaining > job.absDeadline && job.absDeadline <= horizon {
			return nil, &DeadlineMissError{
				Task:        job.task,
				Name:        ts[job.task].Name,
				AbsDeadline: job.absDeadline,
				FinishBound: t + job.remaining,
			}
		}
		runUntil := t + job.remaining
		if nxt := earliestRelease(); nxt < runUntil {
			runUntil = nxt
		}
		if runUntil > horizon {
			runUntil = horizon
		}
		if runUntil > t {
			if lastTask != job.task {
				res.ContextSwitches++
			}
			if n := len(res.Slots); n > 0 && res.Slots[n-1].Task == job.task && res.Slots[n-1].End == t {
				res.Slots[n-1].End = runUntil
			} else {
				res.Slots = append(res.Slots, Slot{Start: t, End: runUntil, Task: job.task})
			}
			job.remaining -= runUntil - t
			job.started = true
			lastTask = job.task
			t = runUntil
		}
		if job.remaining == 0 {
			ready.pop()
		} else {
			// The job was cut short by a release; if the newly released
			// job has an earlier deadline the current job is preempted.
			task, release, started := job.task, job.release, job.started
			releaseUpTo(t)
			if started && (ready[0].task != task || ready[0].release != release) {
				res.Preemptions++
			}
		}
	}
	return res, nil
}

// ServicePerWindow verifies that, in the cyclic extension of the given
// slots (repeating with the given table length), task i receives at least
// ts[i].WCET units of service in every window [k*T_i, (k+1)*T_i) for k in
// [0, tableLen/T_i). It returns the first violated window, or ok=true.
//
// This is the paper's utilization guarantee stated directly against a
// concrete table.
func ServicePerWindow(ts TaskSet, slots []Slot, tableLen int64) (task int, windowStart int64, got int64, ok bool) {
	for i, tk := range ts {
		if tableLen%tk.Period != 0 {
			// The window pattern would not repeat; treat as violation.
			return i, 0, 0, false
		}
		for w := int64(0); w < tableLen; w += tk.Period {
			var svc int64
			for _, s := range slots {
				if s.Task != i {
					continue
				}
				lo, hi := s.Start, s.End
				if lo < w {
					lo = w
				}
				if hi > w+tk.Period {
					hi = w + tk.Period
				}
				if hi > lo {
					svc += hi - lo
				}
			}
			if svc < tk.WCET {
				return i, w, svc, false
			}
		}
	}
	return 0, 0, 0, true
}

// MaxBlackout returns the longest contiguous interval, in the cyclic
// extension of the slots over tableLen, during which task i receives no
// service. It accounts for the wrap-around gap between the task's last
// slot in one cycle and its first slot in the next. If the task never
// runs, tableLen is returned (one full cycle with no service; callers
// should treat repeated starvation as unbounded).
func MaxBlackout(slots []Slot, task int, tableLen int64) int64 {
	var mine []Slot
	for _, s := range slots {
		if s.Task == task {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return tableLen
	}
	var worst int64
	prevEnd := mine[len(mine)-1].End - tableLen // wrap: last slot of previous cycle
	for _, s := range mine {
		if gap := s.Start - prevEnd; gap > worst {
			worst = gap
		}
		prevEnd = s.End
	}
	return worst
}
