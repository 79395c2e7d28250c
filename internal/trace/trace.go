// Package trace is a low-overhead binary scheduling tracer modeled on
// xentrace: fixed-size per-pCPU ring buffers of small typed records,
// stamped with simulated time and written with no allocation on the
// emit path. The instrumented components (the machine, the dispatcher,
// the second-level scheduler, the fault injector, the planner client)
// call Emit at each scheduling-relevant transition; everything above —
// live metrics, offline analysis, the tableau-trace CLI — is derived
// from the same record stream, so the numbers an experiment reports and
// the numbers decoded from a dumped trace cannot drift apart.
//
// The tracer is nil-safe: a nil *Tracer accepts (and discards) Emit
// calls, so instrumentation sites need no flag checks beyond the
// pointer test the compiler already inlines. Rings overwrite their
// oldest records when full, like xentrace's t_bufs; the per-ring lost
// count preserves how much history scrolled away.
package trace

// Event types. The numeric values are part of the binary trace format
// (encode.go) and must never be renumbered — append only.
const (
	// EvRunstateChange records a vCPU runstate transition.
	// VCPU = the vCPU; Arg0 = old state; Arg1 = new state (State*).
	EvRunstateChange uint8 = 1
	// EvContextSwitch records a pCPU switching vCPU context.
	// VCPU = incoming vCPU or -1 for idle; Arg0 = outgoing vCPU or -1.
	EvContextSwitch uint8 = 2
	// EvTableSwitch records a core adopting a staged table.
	// Arg0 = adopted generation; Arg1 = activation cycle index.
	EvTableSwitch uint8 = 3
	// EvIPI records a kick. VCPU = -1; Arg0 = disposition (IPI*);
	// Arg1 = delivery delay in ns for IPIDelayed, else 0. CPU is the
	// kicked core.
	EvIPI uint8 = 4
	// EvFaultInjected records a fault taking effect. Arg0 = fault kind
	// (Fault*); Arg1 = kind-specific magnitude (duration or delay, ns).
	EvFaultInjected uint8 = 5
	// EvL2Pick records a second-level dispatch. VCPU = the vCPU;
	// Arg0 = remaining budget in ns.
	EvL2Pick uint8 = 6
	// EvPlannerCall records a new table staged by the control plane.
	// Arg0 = staged generation; Arg1 = activation cycle index.
	EvPlannerCall uint8 = 7
	// EvMigrate records a vCPU picked up by a core other than the one
	// it last ran on. VCPU = the vCPU; Arg0 = previous core or -1;
	// Arg1 = 1 for an explicit scheduler work-steal, 0 for a placement
	// migration observed by the machine at dispatch.
	EvMigrate uint8 = 8
	// EvPlanOrigin annotates an installed epoch with where its plan
	// came from (emitted by the controller alongside the dispatcher's
	// plannercall record). Arg0 = origin (PlanOrigin*); Arg1 = cores
	// whose assignments were pinned from the previous plan.
	EvPlanOrigin uint8 = 9
)

// evMax bounds the valid event type range for decoders.
const evMax = EvPlanOrigin

// Plan origins carried by EvPlanOrigin Arg0. Value 3 was the origin of
// a plan-ahead layer that no longer exists; it stays reserved (old dumps
// may carry it, and it decodes as unknown) and must not be reused.
const (
	PlanOriginScratch     int64 = 0
	PlanOriginCached      int64 = 1
	PlanOriginIncremental int64 = 2
)

// PlanOriginName returns the mnemonic for an EvPlanOrigin Arg0.
func PlanOriginName(o int64) string {
	switch o {
	case PlanOriginScratch:
		return "scratch"
	case PlanOriginCached:
		return "cached"
	case PlanOriginIncremental:
		return "incremental"
	}
	return "unknown"
}

// Runstate codes carried by EvRunstateChange. These deliberately
// mirror (but do not import) vmm's vCPU states, keeping the trace
// format self-contained.
const (
	StateRunnable int64 = 0
	StateRunning  int64 = 1
	StateBlocked  int64 = 2
	StateDead     int64 = 3
)

// IPI dispositions carried by EvIPI.
const (
	IPISent    int64 = 0
	IPIDropped int64 = 1
	IPIDelayed int64 = 2
)

// Fault kinds carried by EvFaultInjected.
const (
	FaultFailStop   int64 = 0
	FaultStall      int64 = 1
	FaultTimerDrift int64 = 2
	FaultIPIDrop    int64 = 3
	FaultIPIDelay   int64 = 4
	FaultNICDrop    int64 = 5
	// FaultPlannerOutage marks a remote-planner outage window opening: a
	// control-plane fault, so the record rides the control ring (core -1).
	FaultPlannerOutage int64 = 6
)

// FaultKindName returns the mnemonic for an EvFaultInjected Arg0.
func FaultKindName(k int64) string {
	switch k {
	case FaultFailStop:
		return "failstop"
	case FaultStall:
		return "stall"
	case FaultTimerDrift:
		return "timerdrift"
	case FaultIPIDrop:
		return "ipidrop"
	case FaultIPIDelay:
		return "ipidelay"
	case FaultNICDrop:
		return "nicdrop"
	case FaultPlannerOutage:
		return "planneroutage"
	}
	return "unknown"
}

// EventName returns the mnemonic for a record type.
func EventName(t uint8) string {
	switch t {
	case EvRunstateChange:
		return "runstate"
	case EvContextSwitch:
		return "ctxswitch"
	case EvTableSwitch:
		return "tableswitch"
	case EvIPI:
		return "ipi"
	case EvFaultInjected:
		return "fault"
	case EvL2Pick:
		return "l2pick"
	case EvPlannerCall:
		return "plannercall"
	case EvMigrate:
		return "migrate"
	case EvPlanOrigin:
		return "planorigin"
	}
	return "unknown"
}

// EventByName is the inverse of EventName; it returns 0 for an unknown
// mnemonic.
func EventByName(s string) uint8 {
	for t := uint8(1); t <= evMax; t++ {
		if EventName(t) == s {
			return t
		}
	}
	return 0
}

// StateName returns the mnemonic for a runstate code.
func StateName(s int64) string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// ControlCPU is the CPU field value for records emitted outside any
// core's context (planner calls, machine-wide faults).
const ControlCPU = 0xFFFF

// Record is one trace entry: 40 bytes, fixed layout, no pointers.
// Slices of Record are written to rings in place; the emit path never
// allocates. Seq is a machine-global emission counter: simulated time
// alone cannot totally order records (two cores can act in the same
// nanosecond), and metrics replayed offline must observe records in
// exactly the order the live tracer did.
type Record struct {
	Time  int64  // simulated nanoseconds
	Seq   uint64 // machine-global emission order
	Arg0  int64  // event-specific (see Ev* docs)
	Arg1  int64  // event-specific
	VCPU  int32  // subject vCPU id, -1 when not about a vCPU
	CPU   uint16
	Type  uint8
	Flags uint8 // Flag* bits; 0 for records about no or an LS vCPU
}

// FlagBestEffort marks a record whose subject vCPU is best-effort
// (tenancy class BE). Stamped at emission from the tracer's class
// registry (SetBestEffort), so per-class analyses can split a decoded
// dump without access to the live population. Records about LS vCPUs —
// and every record from a run with no registry — carry Flags == 0,
// keeping pre-class dumps bit-identical.
const FlagBestEffort uint8 = 1 << 0

// ring is one per-CPU buffer. n counts records ever emitted; when
// n > len(buf) the oldest records have been overwritten. Capacity is a
// power of two so the wrap is a mask, not a division, on the emit path.
type ring struct {
	buf  []Record
	mask uint64 // len(buf) - 1
	n    uint64
}

func (r *ring) put(rec Record) {
	r.buf[r.n&r.mask] = rec
	r.n++
}

// count returns how many records the ring currently holds.
func (r *ring) count() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// lost returns how many records were overwritten.
func (r *ring) lost() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// snapshot appends the ring's live records in emission order.
func (r *ring) snapshot(dst []Record) []Record {
	if r.n <= uint64(len(r.buf)) {
		return append(dst, r.buf[:r.n]...)
	}
	head := int(r.n & r.mask)
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// DefaultRingSize is the per-CPU ring capacity when New is given 0.
const DefaultRingSize = 1 << 15

// Tracer collects records into per-pCPU rings and keeps always-on
// derived metrics. The zero value is not usable; call New. A Tracer is
// bound to a machine topology by Bind, which the machine calls at
// Start; Emit before Bind is discarded (the topology is unknown).
//
// A Tracer is not safe for concurrent use. The simulator is
// single-threaded per machine; parallel experiment runners give each
// machine its own Tracer.
type Tracer struct {
	ringSize int
	rings    []ring // one per pCPU, plus one control ring at the end
	seq      uint64 // next Record.Seq
	endTime  int64  // latest FlushResidency instant, recorded in dumps
	nvcpus   int
	metrics  Metrics // cache of the last replay; valid when !dirty
	dirty    bool
	bound    bool

	// be[v] marks vCPU v best-effort; Emit stamps FlagBestEffort on its
	// records. Set via SetBestEffort; survives Bind (class is population
	// configuration, not per-run state).
	be []bool
}

// New creates a tracer whose per-CPU rings hold ringSize records each
// (DefaultRingSize when ringSize <= 0; rounded up to a power of two so
// ring wrap stays a mask).
func New(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	p := 1
	for p < ringSize {
		p <<= 1
	}
	return &Tracer{ringSize: p}
}

// Bind sizes the rings and metrics for a machine with ncpus pCPUs and
// nvcpus vCPUs. The machine calls this from Start; calling it again
// resets the tracer.
func (t *Tracer) Bind(ncpus, nvcpus int) {
	if t == nil {
		return
	}
	t.rings = make([]ring, ncpus+1) // last ring is the control ring
	for i := range t.rings {
		t.rings[i] = ring{buf: make([]Record, t.ringSize), mask: uint64(t.ringSize - 1)}
	}
	t.seq = 0
	t.endTime = 0
	t.nvcpus = nvcpus
	t.metrics.reset(nvcpus)
	t.dirty = false
	t.bound = true
}

// SetBestEffort installs the per-vCPU tenancy classes (true = BE),
// indexed by vCPU id. Emit stamps FlagBestEffort on records about BE
// vCPUs from then on. nil clears the registry (all LS).
func (t *Tracer) SetBestEffort(be []bool) {
	if t == nil {
		return
	}
	if be == nil {
		t.be = nil
		return
	}
	t.be = append(t.be[:0], be...)
}

// Emit appends a record. cpu < 0 (or out of range) routes to the
// control ring and is stored as ControlCPU. Emit on a nil or unbound
// tracer is a no-op, so instrumentation sites stay branch-cheap. Emit
// only logs — metrics are derived lazily by Metrics(), keeping the
// sim hot path at a single ring store.
func (t *Tracer) Emit(typ uint8, cpu int, now int64, vcpu int, arg0, arg1 int64) {
	if t == nil || !t.bound {
		return
	}
	rec := Record{Time: now, Seq: t.seq, Arg0: arg0, Arg1: arg1, VCPU: int32(vcpu), Type: typ}
	if vcpu >= 0 && vcpu < len(t.be) && t.be[vcpu] {
		rec.Flags = FlagBestEffort
	}
	t.seq++
	ri := len(t.rings) - 1
	if cpu >= 0 && cpu < len(t.rings)-1 {
		rec.CPU = uint16(cpu)
		ri = cpu
	} else {
		rec.CPU = ControlCPU
	}
	t.rings[ri].put(rec)
	t.dirty = true
}

// Metrics derives the tracer's metrics by replaying the rings through
// the same path Analyze uses on a decoded dump — live numbers and
// offline summaries of the same trace are equal by construction. The
// replay is cached until the next Emit. If rings have overwritten
// records the result is partial, exactly like an offline analysis of
// the overwritten dump. Call FlushResidency first if residency up to
// "now" matters.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	if t.dirty {
		replayRecords(&t.metrics, t.nvcpus, t.Merged(), t.endTime)
		t.dirty = false
	}
	return &t.metrics
}

// FlushResidency marks the end of the traced run: residency totals in
// Metrics() and in offline analyses of the encoded dump are charged up
// to now.
func (t *Tracer) FlushResidency(now int64) {
	if t == nil || !t.bound {
		return
	}
	if now > t.endTime {
		t.endTime = now
		t.dirty = true
	}
}

// NumCPUs returns the number of pCPU rings (excluding the control
// ring), or 0 when unbound.
func (t *Tracer) NumCPUs() int {
	if t == nil || !t.bound {
		return 0
	}
	return len(t.rings) - 1
}

// Merged returns every live record from all rings merged into one
// stream in emission (Seq) order — the exact order the live metrics
// observed them.
func (t *Tracer) Merged() []Record {
	if t == nil || !t.bound {
		return nil
	}
	perRing := make([][]Record, len(t.rings))
	total := 0
	for i := range t.rings {
		perRing[i] = t.rings[i].snapshot(nil)
		total += len(perRing[i])
	}
	return mergeRecords(perRing, total)
}

// mergeRecords k-way merges per-ring record slices, each already in
// Seq order, into one Seq-ordered stream.
func mergeRecords(perRing [][]Record, total int) []Record {
	out := make([]Record, 0, total)
	idx := make([]int, len(perRing))
	for len(out) < total {
		best := -1
		for r := range perRing {
			if idx[r] >= len(perRing[r]) {
				continue
			}
			if best == -1 || perRing[r][idx[r]].Seq < perRing[best][idx[best]].Seq {
				best = r
			}
		}
		out = append(out, perRing[best][idx[best]])
		idx[best]++
	}
	return out
}
