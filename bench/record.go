package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// recorder is what one pass of one workload leaves behind: per-call
// timings by call site, split into the set-up and the measured phase;
// the indices of measured calls that failed; counters and simulated-time
// results that must repeat exactly from pass to pass; and the memory
// figures of the measured phase.
type recorder struct {
	tr *tracer // nil on untraced passes

	// gcPhase in [0,1) is how far into a collector cycle this pass's
	// measured phase starts; see beginMeasure.
	gcPhase float64
	// heap0 is the live heap before the pass built anything: what the
	// harness itself retains, earlier passes' recorders above all.
	heap0 uint64

	measuring bool
	setup     map[string][]int64 // call site -> ns per call before beginMeasure
	meas      map[string][]int64 // call site -> ns per call after it
	failed    map[string][]int   // call site -> indices into meas[site] that failed

	// exact holds every number that is a function of the seed alone:
	// layer counters, simulated-time latencies, byte sizes. The passes
	// are compared on it key by key.
	exact map[string]float64

	wall       time.Duration // wall clock of the measured phase, clock reads included
	mem0       runtime.MemStats
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPUSec   float64
	gcCPU0     float64
	liveHeap   uint64 // HeapAlloc after a forced collection with the rig alive, less heap0
	measStart  time.Time
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// newRecorder starts a pass. It collects what the previous pass left
// behind and hands the freed memory back to the operating system, so
// that where this pass's objects land does not depend on which workload
// ran before it: without that, a workload measured between passes of
// the others ran 15-25% slower than measured alone. It then notes the
// heap that remains, so live_heap_mb counts the rig and not the harness.
func newRecorder(tr *tracer, gcPhase float64) *recorder {
	r := &recorder{
		tr:      tr,
		gcPhase: gcPhase,
		setup:   make(map[string][]int64),
		meas:    make(map[string][]int64),
		failed:  make(map[string][]int),
		exact:   make(map[string]float64),
	}
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heap0 = m.HeapAlloc
	return r
}

// call times one call into the product under the call site's name. f
// reports whether the call succeeded; a failed measured call is counted
// against ok_pct and misses any latency limit.
func (r *recorder) call(site string, f func() bool) bool {
	id := r.tr.begin(site)
	t0 := time.Now()
	ok := f()
	d := int64(time.Since(t0))
	r.tr.end(id)
	if r.measuring {
		if !ok {
			r.failed[site] = append(r.failed[site], len(r.meas[site]))
		}
		r.meas[site] = append(r.meas[site], d)
	} else {
		r.setup[site] = append(r.setup[site], d)
	}
	return ok
}

// span wraps a call in a child span on traced passes and is free on
// untraced ones: it is how calls inside an already timed op are
// attributed without adding clock reads to the measured timing.
func (r *recorder) span(name string, f func()) {
	id := r.tr.begin(name)
	f()
	r.tr.end(id)
}

// reserve pre-sizes a measured series so appending to it does not
// allocate inside the measured phase.
func (r *recorder) reserve(site string, n int) {
	r.meas[site] = make([]int64, 0, n)
}

// staggerSink keeps the stagger allocations from being optimised away.
var staggerSink []byte

// beginMeasure ends the set-up phase. The forced collection gives every
// pass the same starting heap, so the allocation deltas are comparable.
//
// The passes allocate identically, so left alone the collector would
// start its cycles at the same calls in every pass, and on the large
// heaps a cycle is running about half the time: the minimum over passes
// would keep the collector's share of those calls. So each pass first
// allocates and drops gcPhase of one cycle's worth of garbage (with
// GOGC=100 the next cycle starts after about one live heap of
// allocation). The cycles of the R passes are then spread evenly over
// the calls and every call runs outside a cycle in most passes.
func (r *recorder) beginMeasure() {
	runtime.GC()
	runtime.ReadMemStats(&r.mem0)
	const chunk = 64 << 10
	garbage := uint64(r.gcPhase * float64(r.mem0.HeapAlloc))
	for n := uint64(0); n < garbage; n += chunk {
		staggerSink = make([]byte, chunk)
	}
	staggerSink = nil
	runtime.ReadMemStats(&r.mem0)
	r.gcCPU0 = gcCPUSeconds()
	r.measuring = true
	r.measStart = time.Now()
}

// endMeasure closes the measured phase and takes the memory figures
// with the rig still reachable by the caller.
func (r *recorder) endMeasure() {
	r.wall = time.Since(r.measStart)
	r.measuring = false
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.allocBytes = m.TotalAlloc - r.mem0.TotalAlloc
	r.mallocs = m.Mallocs - r.mem0.Mallocs
	r.gcCycles = m.NumGC - r.mem0.NumGC
	r.gcCPUSec = gcCPUSeconds() - r.gcCPU0
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.liveHeap = m.HeapAlloc - min(r.heap0, m.HeapAlloc)
}
