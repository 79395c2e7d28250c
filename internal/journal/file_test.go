package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.journal")
	st, err := OpenFile(path, SyncAlways)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	w := NewWriter(st)
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	if err := w.Append(r1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(r2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the image must replay to both records.
	st, err = OpenFile(path, SyncOnDemand)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	rep, err := DecodeAll(mustLoad(t, st))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(rep.Records) != 2 || rep.TailErr != nil {
		t.Fatalf("replayed %d records (tail %v), want 2 clean", len(rep.Records), rep.TailErr)
	}

	// Appends after reopen land after the existing records.
	if err := st.Append(mustEncode(t, testRecord(t, 3))); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	rep, err = DecodeAll(mustLoad(t, st))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(rep.Records) != 3 || rep.Records[2].Version != 3 {
		t.Fatalf("got %d records after reopen-append", len(rep.Records))
	}
}

func TestFileStoreTruncateAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.journal")
	st, err := OpenFile(path, SyncOnDemand)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer st.Close()
	r1 := testRecord(t, 1)
	img1 := appendRecords(t, r1)
	if err := st.Append(mustEncode(t, r1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// A torn half-record tail, as a crash would leave it.
	torn := mustEncode(t, testRecord(t, 2))
	if err := st.Append(torn[:len(torn)/2]); err != nil {
		t.Fatalf("Append torn: %v", err)
	}

	if err := st.Truncate(int64(len(img1))); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got := mustLoad(t, st)
	if !bytes.Equal(got, img1) {
		t.Fatalf("post-truncate image is %d bytes, want %d", len(got), len(img1))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// The store stays appendable through the renamed file.
	if err := st.Append(mustEncode(t, testRecord(t, 2))); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	rep, err := DecodeAll(mustLoad(t, st))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(rep.Records) != 2 || rep.TailErr != nil {
		t.Fatalf("replayed %d records (tail %v) after truncate+append", len(rep.Records), rep.TailErr)
	}
	// And the on-disk file (not just the open handle) has the bytes.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(onDisk, mustLoad(t, st)) {
		t.Fatal("on-disk image differs from the store's view")
	}
}

func TestFileStoreTruncateNoopAtSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.journal")
	st, err := OpenFile(path, SyncOnDemand)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer st.Close()
	if err := st.Append(mustEncode(t, testRecord(t, 1))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	before := mustLoad(t, st)
	if err := st.Truncate(int64(len(before))); err != nil {
		t.Fatalf("Truncate at size: %v", err)
	}
	if err := st.Truncate(int64(len(before) + 1)); err == nil {
		t.Fatal("truncate past end accepted")
	}
	if !bytes.Equal(mustLoad(t, st), before) {
		t.Fatal("no-op truncate changed the image")
	}
}

func TestOpenFileRejectsForeign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, SyncAlways); err == nil {
		t.Fatal("foreign file accepted as journal")
	}
}

func TestFileStoreClosedOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.journal")
	st, err := OpenFile(path, SyncAlways)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := st.Append([]byte{1}); err == nil {
		t.Fatal("append on closed store accepted")
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("load on closed store accepted")
	}
	if err := st.Sync(); err == nil {
		t.Fatal("sync on closed store accepted")
	}
	if err := st.Truncate(0); err == nil {
		t.Fatal("truncate on closed store accepted")
	}
}

// TestFileStoreTruncateFsyncFails injects fsync failures into both
// sync points of Truncate's temp+rename dance and demands a loud error
// from each — a journal whose cut silently fails to reach the disk is
// corruption waiting for the next power cut.
func TestFileStoreTruncateFsyncFails(t *testing.T) {
	errDisk := errors.New("disk on fire")
	setup := func(t *testing.T) (*FileStore, int64, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "epochs.journal")
		st, err := OpenFile(path, SyncOnDemand)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		keep := appendRecords(t, testRecord(t, 1))
		if err := st.Append(mustEncode(t, testRecord(t, 1))); err != nil {
			t.Fatal(err)
		}
		torn := mustEncode(t, testRecord(t, 2))
		if err := st.Append(torn[:len(torn)/2]); err != nil {
			t.Fatal(err)
		}
		return st, int64(len(keep)), keep
	}

	t.Run("file", func(t *testing.T) {
		st, n, _ := setup(t)
		before := mustLoad(t, st)
		orig := fileSync
		fileSync = func(*os.File) error { return errDisk }
		defer func() { fileSync = orig }()
		if err := st.Truncate(n); !errors.Is(err, errDisk) {
			t.Fatalf("Truncate err = %v, want the injected fsync failure", err)
		}
		// The failed cut must not have touched the journal, and the temp
		// file must be cleaned up.
		if !bytes.Equal(mustLoad(t, st), before) {
			t.Fatal("failed truncate changed the image")
		}
		if _, err := os.Stat(st.path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	})

	t.Run("dir", func(t *testing.T) {
		st, n, keep := setup(t)
		orig := dirSync
		dirSync = func(*os.File) error { return errDisk }
		defer func() { dirSync = orig }()
		if err := st.Truncate(n); !errors.Is(err, errDisk) {
			t.Fatalf("Truncate err = %v, want the injected directory fsync failure", err)
		}
		// The rename itself happened: the store reads the cut image and
		// stays appendable (the caller decides whether to retry the sync
		// or abandon the store — but it was told).
		if !bytes.Equal(mustLoad(t, st), keep) {
			t.Fatal("store does not read the renamed file")
		}
		if err := st.Append(mustEncode(t, testRecord(t, 2))); err != nil {
			t.Fatalf("append after reported dir-sync failure: %v", err)
		}
	})
}

// shortWriteOnce makes the next fileWrite persist only the first half of
// its record and report ENOSPC, the way a filling disk does; later
// writes go through.
func shortWriteOnce(t *testing.T) {
	t.Helper()
	orig := fileWrite
	t.Cleanup(func() { fileWrite = orig })
	fileWrite = func(f *os.File, b []byte) (int, error) {
		fileWrite = orig
		n, _ := f.Write(b[:len(b)/2])
		return n, syscall.ENOSPC
	}
}

// TestFileStoreFailedAppendLeavesNoTornBytes: an append the store
// refused must leave nothing in the file. The controller rolls the
// epoch back and carries on, so whatever a short write persisted would
// sit in front of every later record — a CRC mismatch that makes
// acknowledged epochs unreachable and that recovery would then cut away.
func TestFileStoreFailedAppendLeavesNoTornBytes(t *testing.T) {
	st, err := OpenFile(filepath.Join(t.TempDir(), "epochs.journal"), SyncOnDemand)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer st.Close()
	if err := st.Append(mustEncode(t, testRecord(t, 1))); err != nil {
		t.Fatal(err)
	}
	shortWriteOnce(t)
	if err := st.Append(mustEncode(t, testRecord(t, 2))); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write: Append err = %v, want ENOSPC", err)
	}
	for v := uint64(3); v <= 4; v++ {
		if err := st.Append(mustEncode(t, testRecord(t, v))); err != nil {
			t.Fatalf("append of record %d after the failed one: %v", v, err)
		}
	}
	want := appendRecords(t, testRecord(t, 1), testRecord(t, 3), testRecord(t, 4))
	if got := mustLoad(t, st); !bytes.Equal(got, want) {
		rep, _ := DecodeAll(got)
		t.Fatalf("image is %d bytes, want the %d of records 1, 3, 4; it replays %d records, tail: %v, %d bytes cut",
			len(got), len(want), len(rep.Records), rep.TailErr, rep.Truncated)
	}
}

// TestFileStoreFailedCutBackPoisons: when the torn bytes cannot be
// removed either, the store must refuse every later append rather than
// acknowledge records behind them.
func TestFileStoreFailedCutBackPoisons(t *testing.T) {
	st, err := OpenFile(filepath.Join(t.TempDir(), "epochs.journal"), SyncOnDemand)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Append(mustEncode(t, testRecord(t, 1))); err != nil {
		t.Fatal(err)
	}
	// A write that fails on a closed descriptor: the cut-back fails too.
	orig := fileWrite
	defer func() { fileWrite = orig }()
	fileWrite = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		f.Close()
		return n, syscall.EIO
	}
	err = st.Append(mustEncode(t, testRecord(t, 2)))
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append err = %v, want the write failure and the failed cut-back", err)
	}
	fileWrite = orig
	if again := st.Append(mustEncode(t, testRecord(t, 3))); again == nil || again.Error() != err.Error() {
		t.Fatalf("append to a poisoned store: err = %v, want %v", again, err)
	}
}

// faultySyncStore wraps a Store and fails Sync on demand: the Writer
// and its callers must propagate the failure, not swallow it.
type faultySyncStore struct {
	Store
	err error
}

func (f *faultySyncStore) Sync() error { return f.err }

func TestWriterPropagatesSyncFailure(t *testing.T) {
	errDisk := errors.New("no sync today")
	fs := &faultySyncStore{Store: NewMemStore(), err: errDisk}
	w := NewWriter(fs)
	if err := w.Append(testRecord(t, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync err = %v, want the injected failure", err)
	}
	if err := w.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close err = %v, want the injected failure (Close syncs first)", err)
	}
}

func mustEncode(t *testing.T, r *EpochRecord) []byte {
	t.Helper()
	b, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatalf("AppendRecord: %v", err)
	}
	return b
}
