package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/faults"
	"tableau/internal/israce"
	"tableau/internal/journal"
	"tableau/internal/planner"
)

// journalRig is churnRig plus an attached in-memory journal (optionally
// behind a crash injector).
func journalRig(t *testing.T, crash *faults.CrashPlan) (*System, *dispatch.Dispatcher, *Controller, []int, journal.Store, *faults.CrashStore) {
	t.Helper()
	s, d, ctrl, ids, _ := churnRig(t, 2, 2, 2)
	mem := journal.NewMemStore()
	var store journal.Store = mem
	var cs *faults.CrashStore
	if crash != nil {
		var err error
		cs, err = faults.NewCrashStore(mem, *crash)
		if err != nil {
			t.Fatal(err)
		}
		store = cs
	}
	if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
		t.Fatalf("AttachJournal: %v", err)
	}
	return s, d, ctrl, ids, store, cs
}

// toggleFlush commits one epoch by toggling a spare slot.
func toggleFlush(t *testing.T, c *Controller, slot int, active bool) *Transition {
	t.Helper()
	kind := OpDeactivate
	if active {
		kind = OpActivate
	}
	c.Submit(Op{Kind: kind, Slot: slot})
	tr, err := c.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if tr.Version == 0 {
		t.Fatalf("flush committed nothing: %+v", tr)
	}
	return tr
}

// runScript drives the deterministic op script the crash tests and
// their shadow (never-crashed) controller share: 5 single-op flushes.
// Flushes on a crashed journal fail (the "host" is dead) — the script
// keeps going so every run observes the same append sequence up to its
// crash point.
func runScript(c *Controller, ids []int) {
	script := []struct {
		slot   int
		active bool
	}{
		{2, true}, {3, true}, {2, false}, {2, true}, {3, false},
	}
	for _, st := range script {
		kind := OpDeactivate
		if st.active {
			kind = OpActivate
		}
		c.Submit(Op{Kind: kind, Slot: ids[st.slot]})
		_, _ = c.Flush()
	}
}

// TestJournalCommitAndRecoverClean: every committed epoch is journaled,
// and recovery from a cleanly shut down journal rebuilds the
// controller, population, and dispatcher bit-for-bit.
func TestJournalCommitAndRecoverClean(t *testing.T) {
	s, _, ctrl, ids, store, _ := journalRig(t, nil)
	runScript(ctrl, ids)
	liveHist := ctrl.History()
	if len(liveHist) != 6 { // initial + 5 script epochs
		t.Fatalf("live history has %d epochs, want 6", len(liveHist))
	}
	if got := ctrl.Journal().Records(); got != 6 {
		t.Fatalf("journal holds %d records, want 6 (baseline + 5 commits)", got)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, d2, rep, err := Recover(store, RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Replayed != 6 || rep.TruncatedBytes != 0 || rep.TailErr != nil {
		t.Fatalf("report = %+v, want 6 clean records", rep)
	}
	live := liveHist[len(liveHist)-1]
	if rep.RecoveredVersion != live.Version || !bytes.Equal(rep.RecoveredBytes, live.Bytes) {
		t.Fatalf("recovered epoch v%d differs from live v%d", rep.RecoveredVersion, live.Version)
	}
	// Full history equivalence, bit for bit.
	recHist := c2.History()
	if len(recHist) != len(liveHist) {
		t.Fatalf("recovered history has %d epochs, want %d", len(recHist), len(liveHist))
	}
	for i := range liveHist {
		if recHist[i].Version != liveHist[i].Version || !bytes.Equal(epochBytes(t, recHist[i]), epochBytes(t, liveHist[i])) {
			t.Fatalf("epoch %d: recovered v%d differs from live v%d", i, recHist[i].Version, liveHist[i].Version)
		}
		if len(recHist[i].Guarantees) != len(liveHist[i].Guarantees) {
			t.Fatalf("epoch %d: %d guarantees, want %d", i, len(recHist[i].Guarantees), len(liveHist[i].Guarantees))
		}
		for j := range liveHist[i].Guarantees {
			if recHist[i].Guarantees[j] != liveHist[i].Guarantees[j] {
				t.Fatalf("epoch %d guarantee %d differs", i, j)
			}
		}
	}
	// Population: same slots, same configs, same activation.
	s2 := c2.sys
	if s2.NumSlots() != s.NumSlots() || s2.Cores() != s.Cores() {
		t.Fatalf("recovered %d slots / %d cores, want %d / %d", s2.NumSlots(), s2.Cores(), s.NumSlots(), s.Cores())
	}
	for i := 0; i < s.NumSlots(); i++ {
		if s2.Config(i) != s.Config(i) || s2.Active(i) != s.Active(i) {
			t.Fatalf("slot %d: recovered (%+v, %v), want (%+v, %v)",
				i, s2.Config(i), s2.Active(i), s.Config(i), s.Active(i))
		}
	}
	// The recovered dispatcher enacts the recovered epoch.
	if !bytes.Equal(activeBytes(t, d2), live.Bytes) {
		t.Fatal("recovered dispatcher's active table differs from the recovered epoch")
	}

	// The recovered controller keeps journaling into the same store:
	// a new flush appends, and a second recovery replays both halves.
	attachMachine(s2, d2)
	tr := toggleFlush(t, c2, ids[2], !s2.Active(ids[2]))
	if tr.Version != live.Version+1 {
		t.Fatalf("post-recovery epoch v%d, want v%d (versions stay monotonic)", tr.Version, live.Version+1)
	}
	c3, _, rep3, err := Recover(store, RecoverOptions{})
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if rep3.Replayed != 7 || c3.Epoch().Version != tr.Version {
		t.Fatalf("second recovery replayed %d records to v%d, want 7 to v%d",
			rep3.Replayed, c3.Epoch().Version, tr.Version)
	}
}

// TestRecoverCrashKinds drives the same script on a crashing journal
// and a never-crashed shadow, then checks the recovery-equivalence
// oracle: the recovered epoch is bit-identical to the epoch the shadow
// committed at the corresponding append.
func TestRecoverCrashKinds(t *testing.T) {
	// Shadow ground truth: same rig, same script, no crash.
	_, _, shadow, sids, _, _ := journalRig(t, nil)
	runScript(shadow, sids)
	truth := shadow.History()

	const atAppend = 3 // baseline is append 1; appends 2.. are script commits
	for _, kind := range faults.CrashKinds {
		t.Run(kind, func(t *testing.T) {
			_, _, ctrl, ids, _, cs := journalRig(t, &faults.CrashPlan{AtAppend: atAppend, Kind: kind, Seed: 99})
			runScript(ctrl, ids)
			if !cs.Crashed() {
				t.Fatal("crash never fired")
			}
			// A flush that cannot journal must roll back whole.
			if st := ctrl.ControllerStats(); st.Rollbacks == 0 {
				t.Fatal("crashed appends did not roll their flushes back")
			}

			img, err := cs.Surviving()
			if err != nil {
				t.Fatal(err)
			}
			c2, d2, rep, err := Recover(journal.NewMemStoreFrom(img), RecoverOptions{})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			// Record k carries version k; post-append makes the crashing
			// record durable, every other kind loses it.
			wantVersion := uint64(atAppend - 1)
			if kind == faults.CrashPostAppend {
				wantVersion = atAppend
			}
			if rep.RecoveredVersion != wantVersion {
				t.Fatalf("recovered v%d, want v%d", rep.RecoveredVersion, wantVersion)
			}
			want := truth[wantVersion-1]
			if want.Version != wantVersion {
				t.Fatalf("shadow history misaligned: %d at index %d", want.Version, wantVersion-1)
			}
			if !bytes.Equal(rep.RecoveredBytes, epochBytes(t, want)) {
				t.Fatal("recovered epoch is not bit-identical to the shadow's")
			}
			if !bytes.Equal(activeBytes(t, d2), epochBytes(t, want)) {
				t.Fatal("recovered dispatcher is not on the recovered epoch")
			}
			if kind == faults.CrashTorn || kind == faults.CrashBitFlip {
				if rep.TailErr == nil || rep.TruncatedBytes == 0 {
					t.Fatalf("damaged tail not reported: %+v", rep)
				}
			} else if rep.TailErr != nil {
				t.Fatalf("clean-cut crash reported tail damage: %v", rep.TailErr)
			}
			// Life goes on: the recovered controller commits past
			// everything the journal ever saw.
			attachMachine(c2.sys, d2)
			tr := toggleFlush(t, c2, 2, !c2.sys.Active(2))
			if tr.Version <= rep.RecoveredVersion {
				t.Fatalf("post-recovery version %d did not advance", tr.Version)
			}
		})
	}
}

// TestRecoverTornTailReplans: with ReplanTorn set, a truncated tail is
// followed by an admission-gated emergency replan that commits a fresh
// epoch — and the replanned epoch is itself journaled, so the next
// replay finds it.
func TestRecoverTornTailReplans(t *testing.T) {
	_, _, ctrl, ids, _, cs := journalRig(t, &faults.CrashPlan{AtAppend: 4, Kind: faults.CrashTorn, Seed: 7})
	runScript(ctrl, ids)
	img, err := cs.Surviving()
	if err != nil {
		t.Fatal(err)
	}
	store := journal.NewMemStoreFrom(img)
	c2, _, rep, err := Recover(store, RecoverOptions{ReplanTorn: true})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.TailErr == nil {
		t.Fatal("torn tail not detected")
	}
	if !rep.Replanned || rep.ReplanErr != nil {
		t.Fatalf("replan report = %+v", rep)
	}
	if got, want := c2.Epoch().Version, rep.RecoveredVersion+1; got != want {
		t.Fatalf("replanned epoch v%d, want v%d", got, want)
	}
	// The replanned epoch went through the journal like any commit.
	c3, _, rep3, err := Recover(store, RecoverOptions{})
	if err != nil {
		t.Fatalf("re-recover: %v", err)
	}
	if rep3.TailErr != nil {
		t.Fatalf("journal still damaged after truncation: %v", rep3.TailErr)
	}
	if c3.Epoch().Version != c2.Epoch().Version {
		t.Fatalf("replay ends on v%d, want the replanned v%d", c3.Epoch().Version, c2.Epoch().Version)
	}
	if !bytes.Equal(c3.Epoch().Bytes, c2.Epoch().Bytes) {
		t.Fatal("replayed replanned epoch differs bit-wise")
	}
}

// TestJournalAppendFailureRollsBackFlush: the journal is the commit
// point — a flush whose record cannot be appended withdraws the staged
// table and rolls the population back, exactly like a failed install.
func TestJournalAppendFailureRollsBackFlush(t *testing.T) {
	s, d, ctrl, ids, _, _ := journalRig(t, &faults.CrashPlan{AtAppend: 2, Kind: faults.CrashPreAppend, Seed: 1})
	before := epochBytes(t, ctrl.Epoch())
	v1 := ctrl.Epoch().Version

	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	tr, err := ctrl.Flush()
	if err == nil || !errors.Is(err, faults.ErrCrashed) {
		t.Fatalf("flush err = %v, want the journal crash", err)
	}
	if !tr.RolledBack {
		t.Fatalf("transition = %+v, want rollback", tr)
	}
	if s.Active(ids[2]) {
		t.Error("rolled-back arrival left the slot active")
	}
	if d.Staged() != nil {
		t.Error("unjournalable epoch left its table staged")
	}
	if !bytes.Equal(activeBytes(t, d), before) || ctrl.Epoch().Version != v1 {
		t.Error("dispatcher or epoch moved although the commit never became durable")
	}
}

// TestRecoverAfterEmergencyRollbackRecommit: an emergency rollback that
// withdraws a committed-but-unadopted epoch re-commits its predecessor
// to the journal, so recovery lands on the reverted-to epoch — and
// version numbering still resumes past the withdrawn record.
func TestRecoverAfterEmergencyRollbackRecommit(t *testing.T) {
	_, d, ctrl, ids, store, _ := journalRig(t, nil)
	v1 := ctrl.Epoch().Version
	tr := toggleFlush(t, ctrl, ids[2], true) // v2, staged but never adopted
	v2 := tr.Version

	ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, errors.New("planner service down")
	}
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	if _, err := ctrl.Flush(); err == nil {
		t.Fatal("emergency flush with a dead planner should fail")
	}
	if got := ctrl.Epoch().Version; got != v1 {
		t.Fatalf("epoch v%d, want reverted to v%d", got, v1)
	}
	if d.Staged() != nil {
		t.Fatal("withdrawn table still staged")
	}

	c2, _, rep, err := Recover(store, RecoverOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Replayed != 3 { // baseline v1, v2, re-committed v1
		t.Fatalf("replayed %d records, want 3", rep.Replayed)
	}
	if rep.RecoveredVersion != v1 {
		t.Fatalf("recovered v%d, want the reverted-to v%d", rep.RecoveredVersion, v1)
	}
	if h := c2.History(); len(h) != 1 || h[0].Version != v1 {
		t.Fatalf("recovered history folds to %d epochs (top v%d), want just v%d", len(h), h[len(h)-1].Version, v1)
	}
	// Versions resume past the withdrawn v2, never reusing it.
	attachMachine(c2.sys, c2.sink.(*dispatch.Dispatcher))
	tr2 := toggleFlush(t, c2, ids[2], true)
	if tr2.Version != v2+1 {
		t.Fatalf("post-recovery epoch v%d, want v%d (past the withdrawn v%d)", tr2.Version, v2+1, v2)
	}
}

// TestRecoverRejectsEmptyOrForeignJournals: nothing to resume from is
// an error, not a silently empty controller.
func TestRecoverRejectsEmptyOrForeignJournals(t *testing.T) {
	if _, _, _, err := Recover(journal.NewMemStore(), RecoverOptions{}); err == nil {
		t.Fatal("empty journal accepted")
	}
	if _, _, _, err := Recover(journal.NewMemStoreFrom([]byte("not a journal at all")), RecoverOptions{}); err == nil {
		t.Fatal("foreign image accepted")
	}
}

// TestAttachJournalRequiresEpoch: attaching before the initial plan has
// nothing to baseline and is refused.
func TestAttachJournalRequiresEpoch(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	if _, err := s.AddVM(eighthVM("vm0")); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AttachJournal(journal.NewWriter(journal.NewMemStore())); err == nil {
		t.Fatal("journal attached to an epochless controller")
	}
}

// TestEmergencyRollbackAfterMaxHistoryTrim (the MaxHistory floor case):
// with the epoch ring trimmed to its minimum of two entries, an
// emergency rollback that withdraws the newest epoch must still reach
// its predecessor and leave the dispatcher state bit-identical to the
// last adopted epoch.
func TestEmergencyRollbackAfterMaxHistoryTrim(t *testing.T) {
	_, d, ctrl, ids, m := churnRig(t, 2, 2, 2)
	ctrl.MaxHistory = 1 // clamped to the floor of 2

	// Commit v2 and v3 and let the machine adopt v3: the ring now holds
	// [v2, v3] and older epochs are trimmed away.
	toggleFlush(t, ctrl, ids[2], true)
	tr3 := toggleFlush(t, ctrl, ids[3], true)
	m.Run(50_000_000)
	if got := d.ActiveTable().Generation; got != tr3.Version {
		t.Fatalf("active generation %d, want adopted v%d", got, tr3.Version)
	}
	adopted := epochBytes(t, ctrl.Epoch())

	// Commit v4 on top, staged but never adopted (the machine does not
	// run again), then fail its successor's planning in an emergency.
	tr4 := toggleFlush(t, ctrl, ids[2], false)
	if h := ctrl.History(); len(h) != 2 || h[0].Version != tr3.Version || h[1].Version != tr4.Version {
		t.Fatalf("ring = %d epochs ending v%d, want [v%d v%d]",
			len(h), h[len(h)-1].Version, tr3.Version, tr4.Version)
	}
	ctrl.PlanVia = func([]planner.VCPUSpec, planner.Options) (*planner.Result, error) {
		return nil, errors.New("planner service down")
	}
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	if _, err := ctrl.Flush(); err == nil {
		t.Fatal("emergency flush with a dead planner should fail")
	}

	// The trimmed ring still held v4's predecessor: the rollback reverts
	// to v3 and the dispatcher is bit-identical to the adopted epoch.
	if got := ctrl.Epoch().Version; got != tr3.Version {
		t.Fatalf("epoch v%d, want reverted to v%d", got, tr3.Version)
	}
	if d.Staged() != nil {
		t.Error("withdrawn v4 still staged")
	}
	if !bytes.Equal(activeBytes(t, d), adopted) {
		t.Error("dispatcher state differs from the adopted epoch after rollback")
	}
	if !bytes.Equal(epochBytes(t, ctrl.Epoch()), adopted) {
		t.Error("reverted epoch differs from the adopted epoch")
	}
	if h := ctrl.History(); len(h) != 1 || h[0].Version != tr3.Version {
		t.Fatalf("history = %d epochs, want just v%d", len(h), tr3.Version)
	}

	// And the controller still works: planning recovers, the emergency
	// commits, and the ring refills to its bound.
	ctrl.PlanVia = nil
	ctrl.Submit(Op{Kind: OpFailCore, Core: 1})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Emergency || tr.Version <= tr4.Version {
		t.Fatalf("recovery transition = %+v", tr)
	}
	if h := ctrl.History(); len(h) != 2 || h[1].Version != tr.Version {
		t.Fatalf("ring did not refill: %d epochs", len(h))
	}
}

// TestRecoverDenseAllocationCeiling: one Recover of the benchmark's
// dense journal (101 records, 192 slots, MaxHistory 64) allocates per
// record — a record's slices, a table on the decode chain — not per name:
// a slot or vCPU name that did not change from the record or table
// before is that one's string. And it allocates what changed, not whole
// epochs: the journal's records are deltas, and of the kept epochs only
// the one resumed on is encoded. Full records and a copy of every kept
// epoch's bytes made one Recover allocate 20 MB.
func TestRecoverDenseAllocationCeiling(t *testing.T) {
	_, store := denseJournaledHost(t, 1, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, func() {
		_, _, rep, err := Recover(store, RecoverOptions{MaxHistory: 64, Incremental: true, Sink: benchSink{}})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if rep.Replayed != 101 {
			t.Fatalf("replayed %d records, want 101", rep.Replayed)
		}
	})
	runtime.ReadMemStats(&after)
	perRecover := float64(after.TotalAlloc-before.TotalAlloc) / 4 // AllocsPerRun warms up with one extra run
	t.Logf("%.0f objects, %.1f MB per Recover", allocs, perRecover/(1<<20))
	if allocs > 2000 {
		t.Errorf("one Recover of the dense journal allocates %.0f objects, ceiling 2000", allocs)
	}
	if perRecover > 10<<20 {
		t.Errorf("one Recover of the dense journal allocates %.1f MB, ceiling 10", perRecover/(1<<20))
	}
}

// fixedImageStore hands Recover one known image to replay.
type fixedImageStore struct {
	journal.Store
	image []byte
}

func (s fixedImageStore) Load() ([]byte, error) { return s.image, nil }

// TestRecoveredHistoryEqualsLive: a dense controller's recovered ring is
// the ring that crashed — epoch by epoch the same version, table
// encoding, guarantees and table, with wire bytes on the current epoch
// only, live and recovered alike — and it is built the way the live one
// was: consecutive epochs share the cores that did not change between
// them, instead of each carrying a private copy.
func TestRecoveredHistoryEqualsLive(t *testing.T) {
	ctrl, store := denseJournaledHost(t, 5, 150)
	live := ctrl.History()
	if len(live) != 64 {
		t.Fatalf("live ring holds %d epochs, want 64", len(live))
	}

	// Recover gets a known image, so that aliasing it can be detected.
	image, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rc, _, rep, err := Recover(fixedImageStore{store, image}, RecoverOptions{MaxHistory: 64, Incremental: true, Sink: benchSink{}})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The 129th record compacted the journal once, down to the record of
	// v65, the epoch just below the 64-epoch ring and the checkpoint the
	// 65th record was; v66..v151 followed.
	if st := ctrl.ControllerStats(); rep.Replayed != 151-64 || st.Compactions != 1 {
		t.Fatalf("replayed %d records after %d compactions, want %d after 1", rep.Replayed, st.Compactions, 151-64)
	}
	recovered := rc.History()
	if len(recovered) != len(live) {
		t.Fatalf("recovered ring holds %d epochs, want %d", len(recovered), len(live))
	}
	for i := range live {
		l, r := live[i], recovered[i]
		if r.Version != l.Version || !bytes.Equal(epochBytes(t, r), epochBytes(t, l)) {
			t.Fatalf("epoch %d: recovered v%d differs from live v%d", i, r.Version, l.Version)
		}
		if current := i == len(live)-1; (l.Bytes != nil) != current || (r.Bytes != nil) != current {
			t.Fatalf("epoch %d (v%d): live carries %d wire bytes, recovered %d; only the current epoch carries any",
				i, l.Version, len(l.Bytes), len(r.Bytes))
		}
		if !reflect.DeepEqual(r.Guarantees, l.Guarantees) {
			t.Fatalf("epoch %d (v%d): guarantees differ", i, l.Version)
		}
		if !reflect.DeepEqual(r.Table, l.Table) {
			t.Fatalf("epoch %d (v%d): the recovered table differs from the live one", i, l.Version)
		}
	}
	if rep.RecoveredVersion != live[63].Version || !bytes.Equal(rep.RecoveredBytes, live[63].Bytes) {
		t.Fatalf("report names v%d, the live controller is on v%d", rep.RecoveredVersion, live[63].Version)
	}
	if len(rep.Slots) != 192 {
		t.Fatalf("report carries %d slots, want 192", len(rep.Slots))
	}
	for slot, sc := range rep.Slots {
		if sc.Active != ctrl.System().Active(slot) {
			t.Fatalf("report says slot %d active = %v, the live system says %v", slot, sc.Active, !sc.Active)
		}
	}
	// No epoch may alias the journal image: one survivor would pin it all.
	lo := reflect.ValueOf(image).Pointer()
	for i, ep := range recovered {
		if at := reflect.ValueOf(ep.Bytes).Pointer(); at >= lo && at < lo+uintptr(len(image)) {
			t.Fatalf("epoch %d (v%d): Bytes points into the journal image", i, ep.Version)
		}
	}
	if at := reflect.ValueOf(rep.RecoveredBytes).Pointer(); at >= lo && at < lo+uintptr(len(image)) {
		t.Fatal("RecoveredBytes points into the journal image")
	}

	// Sharing: a core whose allocations did not change from one epoch to
	// the next is the same memory in both.
	unchanged, shared, private := 0, 0, 0
	for i := 1; i < len(recovered); i++ {
		prev, cur := recovered[i-1].Table, recovered[i].Table
		for ci := range cur.Cores {
			pc, cc := &prev.Cores[ci], &cur.Cores[ci]
			same := prev.Len == cur.Len && pc.Core == cc.Core && reflect.DeepEqual(pc.Allocs, cc.Allocs)
			isShared := &pc.Allocs[0] == &cc.Allocs[0]
			if same {
				unchanged++
			}
			if isShared {
				shared++
			} else {
				private++
			}
			if same != isShared {
				t.Fatalf("epochs %d→%d core %d: unchanged = %v, shared = %v", i-1, i, ci, same, isShared)
			}
		}
	}
	t.Logf("recovered ring: %d of %d core segments shared with the epoch before (%.0f%%)",
		shared, shared+private, 100*float64(shared)/float64(shared+private))
	if 2*shared < shared+private {
		t.Errorf("only %d of %d cores shared across consecutive epochs; the dense walk changes 3 of 16 cores a step", shared, shared+private)
	}

	// What the recovered controller keeps alive: 64 tables sharing their
	// unchanged cores, and one epoch's bytes. Sixty-four epochs' bytes
	// would be 6 MB more, and sixty-four private indices alone 37 MB.
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("recovered controller retains %.1f MB; one Recover allocated %.1f MB",
		float64(retained)/(1<<20), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if !israce.Enabled && retained > 6<<20 {
		t.Errorf("the recovered controller retains %.1f MB, want under 6", float64(retained)/(1<<20))
	}
	runtime.KeepAlive(rc)
}
