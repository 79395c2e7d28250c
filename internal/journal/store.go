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
//
// An image Load returns is for reading only: a store may hand out its
// own memory rather than a copy, so neither the caller nor anyone it
// passes the image to may write to it.
type Store interface {
	// Append appends one framed record (as produced by AppendRecord).
	Append(rec []byte) error
	// Sync makes previously appended bytes durable (fsync for files, a
	// no-op for memory).
	Sync() error
	// Load returns the complete journal image for replay, read-only.
	Load() ([]byte, error)
	// Truncate drops every byte past offset n — recovery cuts a torn
	// or corrupt tail back to the last intact record with it.
	Truncate(n int64) error
	// Close releases the store; a closed store refuses every operation.
	Close() error
}

// Compactor is the optional Store capability journal compaction uses,
// the way a table sink may offer AbortStaged: dropping the oldest
// records while keeping the header and every later record byte for
// byte. The caller cuts at a full record, so the kept suffix replays on
// its own. A controller with a bounded epoch ring compacts a store that
// has the capability; a store without it keeps every record, as every
// Store always did.
type Compactor interface {
	// Compact drops the n oldest records. On failure the store holds the
	// image it held before (a FileStore: the old image or the new one,
	// never a hybrid).
	Compact(n int) error
}

// MemStore is the in-memory Store used by simulations and crash-point
// tests. The "disk" is the list of what was appended, one exact-size
// segment per Append (a torn prefix from a crash injector is just a
// short segment), so an append costs its record and never recopies the
// journal, and a compaction drops leading segments without copying any.
//
// A segment is never written once it is in the store: Append adds a new
// one, and Truncate, Compact and the seed's split only reslice. That is
// what lets Load hand out a one-segment store's memory instead of a
// copy, and NewMemStoreFrom adopt its image. Safe for concurrent use.
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

// NewMemStoreFrom returns an in-memory store seeded with an existing
// journal image (a crash-test's surviving bytes, another store's Load).
// The store adopts the image, not a copy: the caller must not write to
// it afterwards, and the store never does.
func NewMemStoreFrom(image []byte) *MemStore {
	return &MemStore{segs: [][]byte{image}, size: len(image)}
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

// Load returns the image read-only. A one-segment store (a seeded one
// before any append or compaction) returns that segment itself, its
// capacity clipped so an append to it reallocates; more segments are
// joined into one new image. Either way later appends, truncations and
// compactions do not reach an image already loaded.
func (m *MemStore) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("journal: load from closed store")
	}
	if len(m.segs) == 1 {
		return m.segs[0][:m.size:m.size], nil
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

// Compact drops the n oldest records (the Compactor capability). Every
// Append is one record's segment, so that is dropping the n segments
// after the header; the one segment NewMemStoreFrom seeds with a whole
// image is split into header and records the first time, by reslicing.
// A dropped segment must be exactly one whole record — anything else
// (a torn prefix not yet truncated) refuses the compaction.
func (m *MemStore) Compact(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("journal: compact of closed store")
	}
	if len(m.segs) > 0 && len(m.segs[0]) > HeaderSize {
		if err := m.splitSeedLocked(); err != nil {
			return err
		}
	}
	if n < 0 || n > len(m.segs)-1 {
		return fmt.Errorf("journal: compact of %d records, store holds %d segments", n, len(m.segs)-1)
	}
	dropped := 0
	for _, seg := range m.segs[1 : 1+n] {
		if l, err := frameLen(seg); err != nil || l != len(seg) {
			return fmt.Errorf("journal: compact over a %d-byte segment that is not one whole record", len(seg))
		}
		dropped += len(seg)
	}
	kept := copy(m.segs[1:], m.segs[1+n:])
	clear(m.segs[1+kept:])
	m.segs = m.segs[:1+kept]
	m.size -= dropped
	return nil
}

// splitSeedLocked splits the first segment — header plus the records of
// a seeded image — into a header segment and one segment per record.
// The header is copied (six bytes), the records are windows into the
// seed, which lives until the last of them is dropped.
func (m *MemStore) splitSeedLocked() error {
	seed := m.segs[0]
	segs := [][]byte{bytes.Clone(seed[:HeaderSize])}
	for off := HeaderSize; off < len(seed); {
		l, err := frameLen(seed[off:])
		if err != nil {
			return fmt.Errorf("journal: compact of a seeded image at offset %d: %w", off, err)
		}
		segs = append(segs, seed[off:off+l:off+l])
		off += l
	}
	m.segs = append(segs, m.segs[1:]...)
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
	// last is the record this writer appended last (its version and
	// slots), the one base a delta may name; lastOK is false before the
	// first append and after a failed one.
	last   EpochRecord
	lastOK bool
}

// NewWriter wraps a store. The store must already hold a valid journal
// image (NewMemStore and OpenFile arrange the header).
func NewWriter(store Store) *Writer {
	return &Writer{store: store}
}

// Append journals one epoch record; a delta's base must be the record
// this writer appended last (Last).
func (w *Writer) Append(r *EpochRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var base *EpochRecord
	if w.lastOK {
		base = &w.last
	}
	buf, err := AppendRecord(w.scratch[:0], r, base)
	if err != nil {
		return err
	}
	w.scratch = buf[:0]
	if err := w.store.Append(buf); err != nil {
		// Whatever of the record reached the store, no delta may follow it.
		w.lastOK = false
		return err
	}
	w.records++
	w.last.Version = r.Version
	w.last.Slots = append(w.last.Slots[:0], r.Slots...)
	w.lastOK = true
	return nil
}

// Last returns the version of the record this writer appended last; ok
// is false before its first append and after a failed one. A writer
// opened on a journal that already holds records knows none of them.
func (w *Writer) Last() (version uint64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last.Version, w.lastOK
}

// CanCompact reports whether the writer's store is a Compactor.
func (w *Writer) CanCompact() bool {
	_, ok := w.store.(Compactor)
	return ok
}

// Compact drops the n oldest records from a compacting store.
func (w *Writer) Compact(n int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.store.(Compactor)
	if !ok {
		return fmt.Errorf("journal: the store cannot compact")
	}
	return c.Compact(n)
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
