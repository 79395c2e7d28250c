package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded from the benchmark's own files only: one around
// every call into a layer's public API, plus child spans from the
// TableSink and journal.Store wrappers the harness hands to the
// product. The product itself is not instrumented. Spans stay in memory
// for the whole traced pass and are written out when it ends.

// span is one timed interval. Parent is the id of the enclosing span
// (0 for none); ids start at 1. Op is the measured-op index the span
// belongs to (-1 during set-up), the identifier spans of one request
// share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"`
}

// tracer collects spans. A nil *tracer is valid and records nothing, so
// untraced passes pay one nil test per call site and no clock reads.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: t.op, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// setOp stamps subsequent spans with the measured-op index; every
// negative index means set-up and is stored as -1.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = max(i, -1)
	}
}

// selfTimes returns, per span (indexed by id-1), its duration minus the
// part of it covered by its direct children. The harness is
// single-threaded, so siblings never overlap and the covered part is
// the plain sum of child durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// spanDurations returns the durations (or self times) of every
// measured-phase span with the given name, in recording order. Set-up
// spans (Op < 0) are left out: warm-up calls run against cold caches.
func spanDurations(spans []span, name string, self bool) []int64 {
	var selfT []int64
	if self {
		selfT = selfTimes(spans)
	}
	var out []int64
	for i, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		if self {
			out = append(out, selfT[i])
		} else {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// outDir is where span files and the FileStore probe's temp journal
// live: bench/out under the checkout root (or out/ when run from inside
// bench/). It is the only place the benchmark writes.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// writeSpans writes one JSON object per span to
// <outDir>/trace-<workload>.jsonl.
func writeSpans(workload string, spans []span) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
