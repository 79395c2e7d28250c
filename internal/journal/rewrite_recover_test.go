package journal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
)

type discard struct{}

func (discard) PushTable(*table.Table) error { return nil }

// journaledHost commits six epochs (a baseline and five toggles) into a
// FileStore at path under a ring of three: the fourth record is a full
// checkpoint a compaction can cut at, and six records are not yet enough
// for the controller to compact on its own.
func journaledHost(t *testing.T, path string) *journal.FileStore {
	t.Helper()
	s := core.NewSystem(2, planner.Options{}, dispatch.Options{})
	for i := 0; i < 4; i++ {
		if _, err := s.AddVM(core.VMConfig{Name: fmt.Sprintf("vm%d", i), Util: core.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000, Capped: true}); err != nil {
			t.Fatal(err)
		}
	}
	_, res, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(s, discard{}, res)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.MaxHistory = 3
	fs, err := journal.OpenFile(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AttachJournal(journal.NewWriter(fs)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		kind := core.OpDeactivate
		if !s.Active(2 + i%2) {
			kind = core.OpActivate
		}
		ctrl.Submit(core.Op{Kind: kind, Slot: 2 + i%2})
		if tr, err := ctrl.Flush(); err != nil || tr.Version == 0 {
			t.Fatalf("flush %d: %+v, %v", i, tr, err)
		}
	}
	return fs
}

// recovered is what a recovery resumes on: the epoch, its slots, the
// two-epoch ring, and the version the next commit gets.
type recovered struct {
	Version uint64
	Bytes   []byte
	Slots   []journal.SlotConfig
	Ring    [][]byte
	Next    uint64
}

func recoverFrom(t *testing.T, store journal.Store) recovered {
	t.Helper()
	rc, _, rep, err := core.Recover(store, core.RecoverOptions{MaxHistory: 2, Sink: discard{}})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	out := recovered{Version: rep.RecoveredVersion, Bytes: rep.RecoveredBytes, Slots: rep.Slots}
	for _, ep := range rc.History() {
		enc, err := ep.Encoded()
		if err != nil {
			t.Fatal(err)
		}
		out.Ring = append(out.Ring, enc.Bytes)
	}
	rc.Submit(core.Op{Kind: core.OpReconfigure, Slot: 0, Util: core.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000})
	tr, err := rc.Flush()
	if err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	out.Next = tr.Version
	return out
}

// TestFileStoreRewriteFailuresRecoverSame: a FileStore rewrites its
// image in two places — Recover cutting a torn tail (Truncate), and a
// bounded controller dropping old records (Compact) — through one
// write-temp, fsync, rename, directory-fsync helper whose temp write
// goes through the fileWrite seam. Whichever step fails, the rewrite
// reports it, and the file left behind, reopened the way a restarted
// daemon would, recovers to exactly the state the image before the
// rewrite recovers to. (Before the shared helper, Truncate wrote its
// temp file around the seam: a short write there could not be injected,
// and the truncate/short-write case reported success.)
func TestFileStoreRewriteFailuresRecoverSame(t *testing.T) {
	errDisk := errors.New("disk on fire")
	injections := []struct {
		name   string
		inject func()
	}{
		{"short-write", func() {
			*journal.FileWrite = func(f *os.File, b []byte) (int, error) {
				n, _ := f.Write(b[:len(b)/2])
				return n, syscall.ENOSPC
			}
		}},
		{"fsync", func() { *journal.FileSync = func(*os.File) error { return errDisk } }},
		{"dir-fsync", func() { *journal.DirSync = func(*os.File) error { return errDisk } }},
	}
	for _, op := range []string{"truncate", "compact"} {
		for _, in := range injections {
			t.Run(op+"/"+in.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "epochs.journal")
				fs := journaledHost(t, path)
				if op == "truncate" {
					// A torn tail, as a crash mid-append leaves it.
					if err := fs.Append([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
						t.Fatal(err)
					}
				}
				img, err := fs.Load()
				if err != nil {
					t.Fatal(err)
				}
				want := recoverFrom(t, journal.NewMemStoreFrom(img))

				write, sync, dir := *journal.FileWrite, *journal.FileSync, *journal.DirSync
				restore := func() { *journal.FileWrite, *journal.FileSync, *journal.DirSync = write, sync, dir }
				defer restore()
				in.inject()
				if op == "truncate" {
					_, _, _, err = core.Recover(fs, core.RecoverOptions{MaxHistory: 2, Sink: discard{}})
				} else {
					err = fs.Compact(3)
				}
				if err == nil {
					t.Fatalf("the %s reported success through an injected %s failure", op, in.name)
				}
				restore()
				_ = fs.Close()

				reopened, err := journal.OpenFile(path, journal.SyncAlways)
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				if got := recoverFrom(t, reopened); !reflect.DeepEqual(got, want) {
					t.Fatalf("after a failed %s the journal recovers v%d (next v%d), before it v%d (next v%d)",
						op, got.Version, got.Next, want.Version, want.Next)
				}
			})
		}
	}
}
