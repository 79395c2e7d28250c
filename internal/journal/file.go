package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SyncPolicy selects when a FileStore fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: the journal is the commit
	// point, so a daemon that must not lose a committed epoch to a
	// power cut runs with this (the default).
	SyncAlways SyncPolicy = iota
	// SyncOnDemand fsyncs only on explicit Sync/Close calls (the
	// control plane's drain path): committed epochs survive a process
	// crash but a simultaneous power cut may drop the unsynced tail —
	// which recovery then truncates like any torn write.
	SyncOnDemand
)

// FileStore is the file-backed Store for daemons. Appends go straight
// to the journal file; truncation (recovery cutting a torn tail)
// rewrites the intact prefix to a temporary file in the same directory
// and atomically renames it over the journal, so a crash during the
// cut leaves either the old image or the new one, never a half-written
// hybrid.
//
// A failed Append leaves nothing behind: the caller rolls its epoch
// back, so bytes of the refused record — a short write's prefix — must
// not stay in the file, where the records appended after them would be
// unreachable behind a CRC mismatch. The store cuts the file back to
// the last accepted record; if even that fails it is poisoned, and
// every later Append returns the same error, so the controller keeps
// rolling back instead of committing epochs no replay can reach.
type FileStore struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	policy SyncPolicy
	size   int64 // end of the last accepted record
	failed error // set once a failed append could not be cut back
}

// fileWrite, fileSync and dirSync are the I/O seams, swappable in tests
// to inject the failures a real disk can produce (so the error paths in
// Append and Truncate are actually exercised, not just written).
var (
	fileWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	fileSync  = func(f *os.File) error { return f.Sync() }
	dirSync   = func(d *os.File) error { return d.Sync() }
)

// OpenFile opens (or creates) a journal file. A new or empty file gets
// the journal header; an existing one must start with it.
func OpenFile(path string, policy SyncPolicy) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	size := st.Size()
	if size == 0 {
		size = int64(HeaderSize)
		if _, err := f.Write(AppendHeader(nil)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: writing header to %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: syncing header of %s: %w", path, err)
		}
	} else {
		hdr := make([]byte, HeaderSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: reading header of %s: %w", path, err)
		}
		if string(hdr[:len(fileMagic)]) != fileMagic {
			f.Close()
			return nil, fmt.Errorf("journal: %s is not a journal (magic %q)", path, hdr[:len(fileMagic)])
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	return &FileStore{f: f, path: path, policy: policy, size: size}, nil
}

func (s *FileStore) Append(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: append to closed store %s", s.path)
	}
	if s.failed != nil {
		return s.failed
	}
	err := s.writeLocked(rec)
	if err == nil {
		s.size += int64(len(rec))
		return nil
	}
	if cerr := s.cutBackLocked(); cerr != nil {
		s.failed = fmt.Errorf("journal: %s is unusable: %w, and the failed append could not be cut back: %w", s.path, err, cerr)
		return s.failed
	}
	return err
}

// writeLocked writes one record and, under SyncAlways, makes it durable.
func (s *FileStore) writeLocked(rec []byte) error {
	if _, err := fileWrite(s.f, rec); err != nil {
		return fmt.Errorf("journal: append to %s: %w", s.path, err)
	}
	if s.policy == SyncAlways {
		if err := fileSync(s.f); err != nil {
			return fmt.Errorf("journal: sync %s: %w", s.path, err)
		}
	}
	return nil
}

// cutBackLocked drops whatever a failed append left past the last
// accepted record and puts the write position back there.
func (s *FileStore) cutBackLocked() error {
	if err := s.f.Truncate(s.size); err != nil {
		return err
	}
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: sync of closed store %s", s.path)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", s.path, err)
	}
	return nil
}

func (s *FileStore) Load() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, fmt.Errorf("journal: load from closed store %s", s.path)
	}
	st, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: stat %s: %w", s.path, err)
	}
	buf := make([]byte, st.Size())
	if _, err := s.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("journal: read %s: %w", s.path, err)
	}
	return buf, nil
}

// Truncate cuts the journal back to n bytes via write-temp +
// fsync + atomic rename (+ directory fsync), so a crash mid-cut cannot
// leave a partially truncated file.
func (s *FileStore) Truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: truncate of closed store %s", s.path)
	}
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", s.path, err)
	}
	if n < 0 || n > st.Size() {
		return fmt.Errorf("journal: truncate offset %d out of range [0,%d]", n, st.Size())
	}
	if n == st.Size() {
		return nil
	}
	keep := make([]byte, n)
	if _, err := s.f.ReadAt(keep, 0); err != nil {
		return fmt.Errorf("journal: read %s: %w", s.path, err)
	}
	tmpPath := s.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create %s: %w", tmpPath, err)
	}
	if _, err := tmp.Write(keep); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("journal: write %s: %w", tmpPath, err)
	}
	if err := fileSync(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("journal: sync %s: %w", tmpPath, err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("journal: rename %s: %w", tmpPath, err)
	}
	// The store now reads and appends through the renamed file whatever
	// happens below — the rename is done — but durability of the rename
	// itself needs the directory entry synced, and a journal whose
	// truncation can silently un-happen across a power cut is exactly
	// the kind of quiet corruption this store exists to prevent: fail
	// loudly so the caller knows the cut is not yet durable.
	old := s.f
	s.f = tmp
	s.size = n
	old.Close()
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("journal: seeking %s: %w", s.path, err)
	}
	dir, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return fmt.Errorf("journal: open dir of %s for sync: %w", s.path, err)
	}
	serr := dirSync(dir)
	cerr := dir.Close()
	if serr != nil {
		return fmt.Errorf("journal: sync dir of %s: %w", s.path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close dir of %s: %w", s.path, cerr)
	}
	return nil
}

func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	cerr := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("journal: sync %s: %w", s.path, err)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close %s: %w", s.path, cerr)
	}
	return nil
}
