package trace

import "tableau/internal/stats"

// Metrics are the statistics derived from a record stream: per-VM
// scheduling-latency histograms, runstate residency, and global
// protocol counters. They are never maintained on the emit path —
// Tracer.Metrics and Analyze both replay the stream through the same
// observe function, so live metrics and offline summaries of the same
// trace agree exactly.
type Metrics struct {
	VMs []VMMetrics

	TableSwitches   int64
	PlannerCalls    int64
	IPIsSent        int64
	IPIsDropped     int64
	IPIsDelayed     int64
	FaultsInjected  int64
	ContextSwitches int64

	// Plan-origin counters (EvPlanOrigin): how each installed epoch's
	// table was produced, and the total cores reused verbatim from the
	// previous plan across incremental epochs.
	PlansScratch     int64
	PlansCached      int64
	PlansIncremental int64
	PinnedCores      int64

	// lastState/lastAt track each vCPU's current runstate for residency
	// and latency accounting. Initial state is Runnable at t=0, matching
	// the machine's vCPU construction.
	lastState []int64
	lastAt    []int64
}

// VMMetrics are one vCPU's derived statistics.
type VMMetrics struct {
	// SchedLatency is the runnable→running wait, one sample per
	// dispatch: the paper's scheduling-latency metric (Fig. 5 CDFs).
	SchedLatency stats.Histogram
	// RunNs/RunnableNs/BlockedNs are total residency per runstate.
	RunNs      int64
	RunnableNs int64
	BlockedNs  int64
	// ContextSwitches counts dispatches of this vCPU (entries into
	// Running); Wakeups counts blocked→runnable transitions.
	ContextSwitches int64
	Wakeups         int64
	// L2Picks counts second-level dispatches.
	L2Picks int64
}

func (m *Metrics) reset(nvcpus int) {
	*m = Metrics{
		VMs:       make([]VMMetrics, nvcpus),
		lastState: make([]int64, nvcpus),
		lastAt:    make([]int64, nvcpus),
	}
	for i := range m.lastState {
		m.lastState[i] = StateRunnable
	}
}

// chargeResidency charges v's time in its current state up to now.
func (m *Metrics) chargeResidency(v int, now int64) {
	d := now - m.lastAt[v]
	if d <= 0 {
		return
	}
	vm := &m.VMs[v]
	switch m.lastState[v] {
	case StateRunning:
		vm.RunNs += d
	case StateRunnable:
		vm.RunnableNs += d
	case StateBlocked:
		vm.BlockedNs += d
	}
}

// observe folds one record into the metrics. It must remain a pure
// function of the record stream: Analyze replays it offline.
func (m *Metrics) observe(r *Record) {
	switch r.Type {
	case EvRunstateChange:
		v := int(r.VCPU)
		if v < 0 || v >= len(m.VMs) {
			return
		}
		m.chargeResidency(v, r.Time)
		vm := &m.VMs[v]
		if r.Arg1 == StateRunning && m.lastState[v] == StateRunnable {
			vm.SchedLatency.Record(r.Time - m.lastAt[v])
			vm.ContextSwitches++
		}
		if r.Arg0 == StateBlocked && r.Arg1 == StateRunnable {
			vm.Wakeups++
		}
		m.lastState[v] = r.Arg1
		m.lastAt[v] = r.Time
	case EvContextSwitch:
		m.ContextSwitches++
	case EvTableSwitch:
		m.TableSwitches++
	case EvPlannerCall:
		m.PlannerCalls++
	case EvPlanOrigin:
		switch r.Arg0 {
		case PlanOriginCached:
			m.PlansCached++
		case PlanOriginIncremental:
			m.PlansIncremental++
		case PlanOriginScratch:
			m.PlansScratch++
		}
		m.PinnedCores += r.Arg1
	case EvIPI:
		switch r.Arg0 {
		case IPIDropped:
			m.IPIsDropped++
		case IPIDelayed:
			m.IPIsDelayed++
		default:
			m.IPIsSent++
		}
	case EvFaultInjected:
		m.FaultsInjected++
	case EvL2Pick:
		if v := int(r.VCPU); v >= 0 && v < len(m.VMs) {
			m.VMs[v].L2Picks++
		}
	}
}

func (m *Metrics) flushResidency(now int64) {
	for v := range m.VMs {
		m.chargeResidency(v, now)
		m.lastAt[v] = now
	}
}

// replayRecords folds a Seq-ordered record stream into m. Residency is
// flushed to endTime (or the last record's timestamp if later), so a
// producer that called FlushResidency at the end of its run yields the
// same totals whether the stream is replayed live or from a dump.
func replayRecords(m *Metrics, nvcpus int, recs []Record, endTime int64) {
	m.reset(nvcpus)
	for i := range recs {
		m.observe(&recs[i])
	}
	if len(recs) > 0 && recs[len(recs)-1].Time > endTime {
		endTime = recs[len(recs)-1].Time
	}
	if endTime > 0 {
		m.flushResidency(endTime)
	}
}

// Analyze replays a decoded dump through the exact observe path
// Tracer.Metrics uses and returns the resulting metrics — a dumped run
// summarizes to the numbers the live experiment reported. Note that a
// ring that overwrote records (Lost > 0) yields partial metrics —
// residency and latency before the surviving window are unknowable.
func Analyze(d *TraceData) *Metrics {
	var m Metrics
	replayRecords(&m, d.NVCPUs, d.Merged(), d.EndTime)
	return &m
}
