package main

import (
	"tableau/internal/core"
	"tableau/internal/journal"
	"tableau/internal/table"
)

// The two seams a Controller exposes to its owner — the table sink and
// the journal store — are where the harness can see inside a Flush
// without touching the product: it hands the controller these wrappers,
// which count, and on traced passes record a child span per call.

// spanSink wraps the sink a controller installs tables into.
type spanSink struct {
	rec    *recorder
	inner  core.TableSink // nil: discard, like a fleet host's sink
	site   string         // span name: who really receives the table
	pushes int64
}

func (s *spanSink) PushTable(t *table.Table) error {
	s.pushes++
	id := s.rec.tr.begin(s.site)
	var err error
	if s.inner != nil {
		err = s.inner.PushTable(t)
	}
	s.rec.tr.end(id)
	return err
}

// AbortStaged forwards the controller's rollback capability to a
// dispatcher behind the wrapper; wrapping must not hide it.
func (s *spanSink) AbortStaged() *table.Table {
	if a, ok := s.inner.(interface{ AbortStaged() *table.Table }); ok {
		return a.AbortStaged()
	}
	return nil
}

// spanStore wraps the journal store under a controller's writer.
type spanStore struct {
	rec     *recorder
	inner   journal.Store
	appends int64
	bytes   int64
	syncs   int64
	last    []byte // newest framed record, the FileStore probe's payload
}

func (s *spanStore) Append(b []byte) error {
	s.appends++
	s.bytes += int64(len(b))
	if s.rec.tr != nil {
		s.last = append(s.last[:0], b...)
	}
	id := s.rec.tr.begin("journal.Append")
	err := s.inner.Append(b)
	s.rec.tr.end(id)
	return err
}

func (s *spanStore) Sync() error {
	s.syncs++
	return s.inner.Sync()
}

func (s *spanStore) Load() ([]byte, error)  { return s.inner.Load() }
func (s *spanStore) Truncate(n int64) error { return s.inner.Truncate(n) }
func (s *spanStore) Close() error           { return s.inner.Close() }
