package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tableau/internal/journal"
)

// sizingStore records the size of every record appended through it. It
// offers no Compactor, as the benchmark's store does not.
type sizingStore struct {
	journal.Store
	sizes []int
}

func (s *sizingStore) Append(rec []byte) error {
	s.sizes = append(s.sizes, len(rec))
	return s.Store.Append(rec)
}

func loadImage(t *testing.T, s journal.Store) []byte {
	t.Helper()
	img, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDeltaRecordsRecoverAsFull is the wall between delta records and
// the full records they stand for: the same script, journaled as the
// controller writes it and again with every record full
// (forceFullRecords), recovers to the same epoch, ring tables,
// guarantees and encodings, slots, and next version. It runs the dense
// host over five seeds, on a compacting store (checkpoints and cuts) and
// on one that keeps every record, and the mixed fleet-shaped host, whose
// flushes reject, shed and reconfigure. (TestRecoverCompactedEqualsLong
// runs the crash matrix, rollback re-commit included, the same way.)
func TestDeltaRecordsRecoverAsFull(t *testing.T) {
	wall := func(t *testing.T, ring int, next Op, script func(t *testing.T) journal.Store) {
		t.Helper()
		deltas := script(t)
		var full journal.Store
		t.Run("full-records", func(t *testing.T) {
			forceFullRecords(t)
			full = script(t)
		})
		di, fi := loadImage(t, deltas), loadImage(t, full)
		got, want := recoverImage(t, di, ring, next), recoverImage(t, fi, ring, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the deltas recover v%d ring %v next v%d, full records v%d ring %v next v%d",
				got.Version, versions(got.Ring), got.Next, want.Version, versions(want.Ring), want.Next)
		}
		if len(di) >= len(fi) {
			t.Fatalf("the delta image is %d bytes, the full one %d: the script journals no deltas", len(di), len(fi))
		}
	}

	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	// Slot 0 is resident or not; either way a reconfigure commits.
	next := Op{Kind: OpReconfigure, Slot: 0, Util: Util{Num: 1, Den: 16}, LatencyGoal: 10_000_000}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, long := range []bool{false, true} {
			t.Run(fmt.Sprintf("dense/seed%d/long=%v", seed, long), func(t *testing.T) {
				wall(t, 64, next, func(t *testing.T) journal.Store {
					var store journal.Store = journal.NewMemStore()
					if long {
						store = longStore{store}
					}
					ctrl := denseJournaledHostOn(t, store, seed, 150)
					if st := ctrl.ControllerStats(); long == (st.Compactions > 0) {
						t.Fatalf("%d compactions on a store that can compact: %v", st.Compactions, !long)
					}
					return store
				})
			})
		}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("mixed/seed%d", seed), func(t *testing.T) {
			wall(t, 0, Op{Kind: OpReconfigure, Slot: 0, Util: Util{Num: 1, Den: 64}, LatencyGoal: 50_000_000},
				func(t *testing.T) journal.Store {
					_, store := mixedJournaledHost(t, seed, 40)
					return store
				})
		})
	}
}

// TestFlushDeltaNeedsItsOwnRecord: a flush journals a delta only on top
// of its current epoch's own record. After a record appended around the
// controller, through its writer, the next flush journals in full and
// commits, and the one after it is a delta again.
func TestFlushDeltaNeedsItsOwnRecord(t *testing.T) {
	_, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
	store := journal.NewMemStore()
	if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
		t.Fatal(err)
	}
	toggleFlush(t, ctrl, ids[2], !ctrl.System().Active(ids[2]))
	ep, err := ctrl.Epoch().Encoded()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Journal().Append(&journal.EpochRecord{Version: ep.Version + 1, TableBytes: ep.Bytes}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		toggleFlush(t, ctrl, ids[3], !ctrl.System().Active(ids[3]))
	}
	if kinds := journalKinds(t, store); kinds != "FDFFD" {
		t.Fatalf("the journal is %s, want FDFFD: baseline, delta, the foreign record, a full flush, a delta", kinds)
	}
	_, _, rep, err := Recover(store, RecoverOptions{Sink: benchSink{}})
	if err != nil || rep.RecoveredVersion != ctrl.Epoch().Version || !bytes.Equal(rep.RecoveredBytes, ctrl.Epoch().Bytes) {
		t.Fatalf("recovered v%d (%v), the live controller is on v%d", rep.RecoveredVersion, err, ctrl.Epoch().Version)
	}
}

// TestDenseDeltaRecordSize: on the benchmark's dense host a journaled
// flush records what it changed — three of 192 slots, a few of 16
// cores, the guarantees — not the whole epoch. Over 100 flushes the
// mean record stays under 25 KB, against the full baseline's 107 KB.
func TestDenseDeltaRecordSize(t *testing.T) {
	store := &sizingStore{Store: journal.NewMemStore()}
	denseJournaledHostOn(t, store, 1, 100)
	if len(store.sizes) != 101 {
		t.Fatalf("%d records, want the baseline and 100 flushes", len(store.sizes))
	}
	total := 0
	for _, n := range store.sizes[1:] {
		total += n
	}
	mean := total / 100
	t.Logf("baseline record %d bytes, flush records %d bytes on average", store.sizes[0], mean)
	if mean > 25_000 {
		t.Errorf("a dense flush journals %d bytes on average, ceiling 25000", mean)
	}
}
