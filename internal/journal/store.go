package journal

import (
	"bytes"
	"fmt"
	"sync"
)

// Store is the pluggable byte-level persistence under a journal: an
// append-only log of framed records plus the recovery-side operations.
// Implementations must make Append atomic at the record granularity
// from the caller's perspective — either the whole record is accepted
// or an error is returned — though what actually survives a crash is
// the store's business (the crash-point tests drive exactly that
// boundary through faults.CrashStore).
type Store interface {
	// Append appends one framed record (as produced by AppendRecord).
	Append(rec []byte) error
	// Sync makes previously appended bytes durable (fsync for files, a
	// no-op for memory).
	Sync() error
	// Load returns the complete journal image for replay.
	Load() ([]byte, error)
	// Truncate drops every byte past offset n — recovery cuts a torn
	// or corrupt tail back to the last intact record with it.
	Truncate(n int64) error
	// Close releases the store; a closed store refuses every operation.
	Close() error
}

// MemStore is the in-memory Store used by simulations and crash-point
// tests. The "disk" is the list of what was appended, one exact-size
// segment per Append (a torn prefix from a crash injector is just a
// short segment), so an append costs its record and never recopies the
// journal. Safe for concurrent use.
type MemStore struct {
	mu     sync.Mutex
	segs   [][]byte
	size   int
	closed bool
}

// NewMemStore returns an empty in-memory store with the journal header
// already written, ready for a Writer.
func NewMemStore() *MemStore {
	return NewMemStoreFrom(AppendHeader(nil))
}

// NewMemStoreFrom returns an in-memory store seeded with a copy of an
// existing journal image (a crash-test's surviving bytes).
func NewMemStoreFrom(image []byte) *MemStore {
	return &MemStore{segs: [][]byte{bytes.Clone(image)}, size: len(image)}
}

func (m *MemStore) Append(rec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("journal: append to closed store")
	}
	m.segs = append(m.segs, bytes.Clone(rec))
	m.size += len(rec)
	return nil
}

func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("journal: sync of closed store")
	}
	return nil
}

// Load concatenates the segments into one image the caller owns: later
// appends and truncations do not reach it.
func (m *MemStore) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("journal: load from closed store")
	}
	return bytes.Join(m.segs, nil), nil
}

func (m *MemStore) Truncate(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("journal: truncate of closed store")
	}
	if n < 0 || n > int64(m.size) {
		return fmt.Errorf("journal: truncate offset %d out of range [0,%d]", n, m.size)
	}
	// Keep whole segments while they fit, cut the one n falls inside.
	size := int(n)
	keep, at := 0, 0
	for ; keep < len(m.segs) && at+len(m.segs[keep]) <= size; keep++ {
		at += len(m.segs[keep])
	}
	if at < size {
		m.segs[keep] = m.segs[keep][:size-at]
		keep++
	}
	clear(m.segs[keep:])
	m.segs = m.segs[:keep]
	m.size = size
	return nil
}

func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Len returns the current image size (tests assert on it).
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.size
}

// Writer frames epoch records onto a Store. It is safe for concurrent
// use; the store sees records whole and in append order.
type Writer struct {
	mu      sync.Mutex
	store   Store
	scratch []byte
	records int64
}

// NewWriter wraps a store. The store must already hold a valid journal
// image (NewMemStore and OpenFile arrange the header).
func NewWriter(store Store) *Writer {
	return &Writer{store: store}
}

// Append journals one epoch record.
func (w *Writer) Append(r *EpochRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := AppendRecord(w.scratch[:0], r)
	if err != nil {
		return err
	}
	w.scratch = buf[:0]
	if err := w.store.Append(buf); err != nil {
		return err
	}
	w.records++
	return nil
}

// Sync forces durability of everything appended so far.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.store.Sync()
}

// Close syncs and closes the underlying store.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.store.Sync(); err != nil {
		w.store.Close()
		return err
	}
	return w.store.Close()
}

// Records returns the number of records appended through this writer
// (not counting whatever the store already held).
func (w *Writer) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}
