package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/journal"
	"tableau/internal/planner"
)

// longStore hides a store's Compactor capability: the journal it backs
// keeps every record, as a store without the capability always has.
type longStore struct{ journal.Store }

// failingCompactor offers the capability and fails every compaction.
type failingCompactor struct{ journal.Store }

func (failingCompactor) Compact(int) error { return errors.New("disk full") }

// journalKinds spells the intact records of a store's image, oldest
// first: F for a full record, D for a delta.
func journalKinds(t *testing.T, s journal.Store) string {
	t.Helper()
	img, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.DecodeAll(img)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]byte, len(rep.Records))
	for i, rec := range rep.Records {
		kinds[i] = 'F'
		if rec.TableDelta != nil {
			kinds[i] = 'D'
		}
	}
	return string(kinds)
}

// TestCompactionBoundsTheJournal: a controller with a bounded ring keeps
// a compacting journal to between ring+1 and 2*ring+1 records — the
// epoch just below the ring, the ring, and what accrued since the last
// cut — and counts each compaction. Every max(ring, 2) records one is a
// full checkpoint, and a cut lands on the newest full record at or
// before the epoch just below the ring, so the kept journal always
// starts full; under this script's steady toggling a checkpoint falls
// exactly there, and the bounds are those a journal of full records
// had. An unbounded controller never compacts and writes deltas after
// its baseline, and so does one whose store cannot compact; a store
// whose compaction fails only keeps a longer journal, checkpoints and
// all: every flush still commits.
func TestCompactionBoundsTheJournal(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ring     int
		store    func() journal.Store
		min, max int // records after the first compaction could have run
		compacts bool
	}{
		{"ring2", 2, func() journal.Store { return journal.NewMemStore() }, 3, 5, true},
		{"ring3", 3, func() journal.Store { return journal.NewMemStore() }, 4, 7, true},
		{"unbounded", 0, func() journal.Store { return journal.NewMemStore() }, 0, 0, false},
		{"no-capability", 2, func() journal.Store { return longStore{journal.NewMemStore()} }, 0, 0, false},
		{"failing", 2, func() journal.Store { return failingCompactor{journal.NewMemStore()} }, 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
			ctrl.MaxHistory = tc.ring
			store := tc.store()
			if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
				t.Fatal(err)
			}
			// Checkpoints are for a store that can compact under a ring.
			_, capable := store.(journal.Compactor)
			checkpoints := capable && tc.ring > 0
			const flushes = 20
			for i := 0; i < flushes; i++ {
				slot := ids[2+i%2]
				toggleFlush(t, ctrl, slot, !ctrl.System().Active(slot))
				kinds := journalKinds(t, store)
				n := len(kinds)
				switch {
				case !tc.compacts && n != i+2:
					t.Fatalf("flush %d: journal holds %d records, want all %d", i, n, i+2)
				case tc.compacts && i+2 > 2*tc.ring && (n < tc.min || n > tc.max):
					t.Fatalf("flush %d: journal holds %d records, want %d..%d", i, n, tc.min, tc.max)
				case kinds[0] != 'F':
					t.Fatalf("flush %d: the journal %s starts with a delta", i, kinds)
				case checkpoints && strings.Contains(kinds, strings.Repeat("D", max(tc.ring, 2))):
					t.Fatalf("flush %d: the journal %s runs %d records without a checkpoint", i, kinds, max(tc.ring, 2))
				case !checkpoints && strings.Contains(kinds[1:], "F"):
					t.Fatalf("flush %d: the journal %s checkpoints a store that cannot compact", i, kinds)
				}
			}
			st := ctrl.ControllerStats()
			if tc.compacts != (st.Compactions > 0) {
				t.Fatalf("%d compactions, want some: %v", st.Compactions, tc.compacts)
			}
			if st.Transitions != flushes || st.Rollbacks != 0 {
				t.Fatalf("stats %+v: every flush must commit", st)
			}
			// Whatever the journal kept, it recovers the controller's epoch.
			rc, _, rep, err := Recover(store, RecoverOptions{MaxHistory: tc.ring, Sink: benchSink{}})
			if err != nil {
				t.Fatal(err)
			}
			if live := ctrl.Epoch(); rep.RecoveredVersion != live.Version || !bytes.Equal(rep.RecoveredBytes, live.Bytes) {
				t.Fatalf("recovered v%d, the live controller is on v%d", rep.RecoveredVersion, live.Version)
			}
			if got, want := rc.History(), ctrl.History(); tc.ring > 0 && !sameEpochs(t, got, want) {
				t.Fatalf("recovered ring %v differs from the live ring %v", versions(got), versions(want))
			}
		})
	}
}

// recovered is what a recovery resumes on, compared by content: the
// epoch, its slots, the ring — every epoch with its table's encoding —
// and the version the next commit gets.
type recovered struct {
	Version uint64
	Bytes   []byte
	Slots   []journal.SlotConfig
	Ring    []Epoch
	Next    uint64
}

// recoverImage recovers img under a ring of the given size and commits
// next on top of it.
func recoverImage(t *testing.T, img []byte, ring int, next Op) recovered {
	t.Helper()
	rc, _, rep, err := Recover(journal.NewMemStoreFrom(img), RecoverOptions{MaxHistory: ring, Sink: benchSink{}})
	if err != nil {
		t.Fatal(err)
	}
	out := recovered{Version: rep.RecoveredVersion, Bytes: rep.RecoveredBytes, Slots: rep.Slots}
	for _, ep := range rc.History() {
		if ep, err = ep.Encoded(); err != nil {
			t.Fatal(err)
		}
		out.Ring = append(out.Ring, ep)
	}
	rc.Submit(next)
	tr, err := rc.Flush()
	if err != nil || tr.Version == 0 {
		t.Fatalf("post-recovery commit: %+v, %v", tr, err)
	}
	out.Next = tr.Version
	return out
}

// TestRecoverCompactedEqualsLong: compaction changes what a journal
// keeps, never what a crash recovers, and neither do delta records. Two
// identical rigs with a ring of two run the same script — toggle
// flushes with, midway, an emergency rollback that re-commits its
// predecessor — under the same crash plan; one journal compacts, its
// shadow's store cannot. For every crash kind at every append across a
// window spanning several compactions (and a plan that never fires),
// Recover of the compacted image equals Recover of the long one, and
// both equal Recover of the compacted image the script writes in full
// records only: the resumed epoch, the ring, the slots, and the version
// the next commit gets.
func TestRecoverCompactedEqualsLong(t *testing.T) {
	const ring, steps, rollbackAt = 2, 16, 7
	run := func(t *testing.T, plan faults.CrashPlan, compact bool) (img []byte, compactions int64) {
		t.Helper()
		_, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
		ctrl.MaxHistory = ring
		var inner journal.Store = journal.NewMemStore()
		if !compact {
			inner = longStore{inner}
		}
		cs, err := faults.NewCrashStore(inner, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.AttachJournal(journal.NewWriter(cs)); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			if step == rollbackAt {
				// The last flush's table is staged, never adopted: an
				// emergency whose planning fails withdraws it and re-commits
				// its predecessor.
				ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
					return nil, errors.New("planner service down")
				}
				ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
				_, _ = ctrl.Flush()
				ctrl.PlanVia = nil
				continue
			}
			slot := ids[2+step%2]
			kind := OpActivate
			if ctrl.System().Active(slot) {
				kind = OpDeactivate
			}
			ctrl.Submit(Op{Kind: kind, Slot: slot})
			_, _ = ctrl.Flush() // fails once the crash has fired
		}
		img, err = cs.Surviving()
		if err != nil {
			t.Fatal(err)
		}
		return img, ctrl.ControllerStats().Compactions
	}
	next := Op{Kind: OpReconfigure, Slot: 0, Util: Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000}

	plans := []faults.CrashPlan{{AtAppend: 1 << 20, Kind: faults.CrashPreAppend}} // never fires
	for at := 2; at <= steps+1; at++ {
		for _, kind := range faults.CrashKinds {
			plans = append(plans, faults.CrashPlan{AtAppend: at, Kind: kind, Seed: int64(at)})
		}
	}
	full := make([]recovered, len(plans))
	t.Run("full-records", func(t *testing.T) {
		forceFullRecords(t)
		for i, plan := range plans {
			img, _ := run(t, plan, true)
			full[i] = recoverImage(t, img, ring, next)
		}
	})
	var compactions, shorter, recommits int
	for i, plan := range plans {
		short, n := run(t, plan, true)
		long, _ := run(t, plan, false)
		got, want := recoverImage(t, short, ring, next), recoverImage(t, long, ring, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at append %d: the compacted image recovers v%d ring %v next v%d, the long one v%d ring %v next v%d",
				plan.Kind, plan.AtAppend, got.Version, versions(got.Ring), got.Next, want.Version, versions(want.Ring), want.Next)
		}
		if !reflect.DeepEqual(got, full[i]) {
			t.Fatalf("%s at append %d: the delta records recover v%d ring %v next v%d, full records v%d ring %v next v%d",
				plan.Kind, plan.AtAppend, got.Version, versions(got.Ring), got.Next, full[i].Version, versions(full[i].Ring), full[i].Next)
		}
		compactions += int(n)
		if len(short) < len(long) {
			shorter++
		}
		if rep, _ := journal.DecodeAll(long); len(journal.FoldEpochs(rep.Records)) < len(rep.Records) {
			recommits++
		}
	}
	if compactions == 0 || shorter == 0 || recommits == 0 {
		t.Fatalf("%d compactions, %d shorter images, %d images with a rollback re-commit: the test lost its teeth", compactions, shorter, recommits)
	}
}

// sameEpochs compares two rings by content: versions, guarantees and
// table encodings.
func sameEpochs(t *testing.T, a, b []Epoch) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || !bytes.Equal(epochBytes(t, a[i]), epochBytes(t, b[i])) || !reflect.DeepEqual(a[i].Guarantees, b[i].Guarantees) {
			return false
		}
	}
	return true
}

func versions(eps []Epoch) []uint64 {
	out := make([]uint64, len(eps))
	for i, ep := range eps {
		out[i] = ep.Version
	}
	return out
}
