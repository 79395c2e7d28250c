package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/planner"
)

// refView and referencePick are the five-pass pick the board replaced,
// kept verbatim as the oracle pick is compared against: one full pass
// over a private copy of every host's headroom per preference step, a
// modulo per host for the home test, a map for the ban list.
type refView struct {
	freeSlots int
	freePPM   int64
	up        bool
	spare     bool
}

func referencePick(views []refView, need int64, banned map[int]bool, spareOK bool, placer, placers int) int {
	pass := func(spare, homeOnly, mustFit bool) int {
		best, bestFree := -1, int64(-1)
		for h := range views {
			v := &views[h]
			if !v.up || v.spare != spare || v.freeSlots <= 0 || banned[h] {
				continue
			}
			if homeOnly && h%placers != placer {
				continue
			}
			if mustFit && v.freePPM < need {
				continue
			}
			if v.freePPM > bestFree {
				best, bestFree = h, v.freePPM
			}
		}
		return best
	}
	if h := pass(false, true, true); h >= 0 {
		return h
	}
	if h := pass(false, false, true); h >= 0 {
		return h
	}
	if spareOK {
		if h := pass(true, false, true); h >= 0 {
			return h
		}
	}
	if h := pass(false, false, false); h >= 0 {
		return h
	}
	if spareOK {
		if h := pass(true, false, false); h >= 0 {
			return h
		}
	}
	return -1
}

// TestPickMatchesFivePassReference is the differential test behind
// "decisions are unchanged, not merely equivalent": over 12k random
// boards — hosts up, down, recovering and dead; tail spares, some
// promoted; zero-slot hosts; headroom drawn from a small menu so ties
// are common, and driven negative by virtual decrements — the strided
// home pass + fused sweep must return exactly the host the five-pass
// reference returns, for every placer, with bans and spareOK both ways,
// reading the board live and through a batch round's frozen overlay.
func TestPickMatchesFivePassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	menu := []int64{0, 125_000, 250_000, 250_000, 500_000, 750_000, 1_000_000, 3_875_000}
	needs := []int64{0, 125_000, 250_000, 500_000, 750_000, 4_000_000}
	states := []HostState{HostUp, HostUp, HostUp, HostUp, HostUp, HostDown, HostRecovering, HostDead}
	boards := 12_000
	if testing.Short() {
		boards = 3_000
	}
	for b := 0; b < boards; b++ {
		n := 1 + rng.Intn(40)
		placers := 1 + rng.Intn(8)
		if placers > n {
			placers = n
		}
		spares := rng.Intn(n/3 + 1)
		cells := make([]cell, n)
		ref := make([]refView, n)
		for h := range cells {
			spare := h >= n-spares && rng.Intn(4) > 0 // a quarter of the tail is promoted
			slots := rng.Intn(4)
			state := states[rng.Intn(len(states))]
			free := menu[rng.Intn(len(menu))]
			cells[h].freePPM.Store(free)
			cells[h].meta.Store(packMeta(slots, state, spare))
			cells[h].version.Store(uint64(1 + rng.Intn(9)))
			ref[h] = refView{freeSlots: slots, freePPM: free, up: state == HostUp, spare: spare}
		}

		// A batch placer's earlier decisions: virtual decrements over the
		// frozen copy, mirrored on the reference's private clone.
		frozen := make([]hostView, n)
		for h := range cells {
			frozen[h] = cells[h].view()
		}
		batch := headroom{cells: cells, frozen: frozen}
		batchRef := append([]refView(nil), ref...)
		for k := rng.Intn(6); k > 0; k-- {
			h := rng.Intn(n)
			if batch.at(h).freeSlots() == 0 {
				continue // a placer only ever takes a host it picked
			}
			vm := VM{Util: planner.Util{Num: 1 + int64(rng.Intn(3)), Den: 4}}
			batch.take(h, vm)
			batchRef[h].freeSlots--
			batchRef[h].freePPM -= vm.ppm()
		}
		live := headroom{cells: cells}

		for trial := 0; trial < 3; trial++ {
			pd := pend{vm: VM{Util: planner.Util{Num: needs[rng.Intn(len(needs))], Den: 1_000_000}}, host: -1}
			banned := make(map[int]bool)
			for k := rng.Intn(5); k > 0; k-- {
				if h := rng.Intn(n); !banned[h] {
					banned[h] = true
					pd.banned = append(pd.banned, h)
				}
			}
			pd.spareOK = rng.Intn(2) == 0
			for placer := 0; placer < placers; placer++ {
				want := referencePick(ref, pd.vm.ppm(), banned, pd.spareOK, placer, placers)
				got, view := pick(&live, &pd, placer, placers)
				if got != want {
					t.Fatalf("board %d live placer %d/%d need %d banned %v spareOK %v: pick = %d, five-pass reference = %d\nboard: %+v",
						b, placer, placers, pd.vm.ppm(), pd.banned, pd.spareOK, got, want, ref)
				}
				if got >= 0 && view != cells[got].view() {
					t.Fatalf("board %d: pick returned view %+v for host %d, cell holds %+v", b, view, got, cells[got].view())
				}
				want = referencePick(batchRef, pd.vm.ppm(), banned, pd.spareOK, placer, placers)
				got, view = pick(&batch, &pd, placer, placers)
				if got != want {
					t.Fatalf("board %d batch placer %d/%d need %d banned %v spareOK %v: pick = %d, five-pass reference = %d\nboard: %+v",
						b, placer, placers, pd.vm.ppm(), pd.banned, pd.spareOK, got, want, batchRef)
				}
				if got >= 0 && view.version != frozen[got].version {
					t.Fatalf("board %d: batch pick of host %d names version %d, the round froze %d", b, got, view.version, frozen[got].version)
				}
			}
		}
		for h := range frozen {
			if frozen[h] != cells[h].view() {
				t.Fatalf("board %d: a placer's virtual decrement wrote through to the shared frozen view of host %d", b, h)
			}
		}
	}
}

// lockedSnapshot recomputes a host's Snapshot from the lock-protected
// fields — what Snapshot returned before the board existed.
func lockedSnapshot(h *Host) Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot{
		Host:      h.id,
		Version:   h.version,
		FreeSlots: len(h.free),
		FreePPM:   int64(h.cores)*1_000_000 - h.usedPPM,
		State:     h.state,
		Spare:     h.spare,
	}
}

// TestBoardPublishedAtEveryTransition walks a fleet through every host
// transition that changes a published field and checks, after each,
// that every host's lock-free Snapshot equals the recomputation under
// its lock — a transition that forgot to publish would leave placers
// deciding from a cell no commit will ever refresh. Each step also
// asserts the transition really happened, so a step that silently
// stopped exercising its path fails rather than passes vacuously.
func TestBoardPublishedAtEveryTransition(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 4, Cores: 1, SlotsPerHost: 6, Placers: 1, SpareHosts: 1, MaxAttempts: 2, Journal: true})
	hosts := a.Hosts()
	check := func(step string) {
		t.Helper()
		for _, h := range hosts {
			if got, want := h.Snapshot(), lockedSnapshot(h); got != want {
				t.Fatalf("after %s: host %d published %+v, its locked state is %+v", step, h.ID(), got, want)
			}
		}
	}
	commit := func(h *Host, vm VM) CommitResult {
		t.Helper()
		res, err := h.CommitPlacements(h.Snapshot().Version, []VM{vm})
		if err != nil {
			t.Fatalf("commit of %s on host %d: %v", vm.Name, h.ID(), err)
		}
		return res
	}
	h0, h1, h2, spare := hosts[0], hosts[1], hosts[2], hosts[3]

	check("construction")
	if !spare.Spare() || h0.Spare() || h0.State() != HostUp || h0.Snapshot().FreeSlots != 5 {
		t.Fatalf("construction published %+v / spare %+v", h0.Snapshot(), spare.Snapshot())
	}

	v0 := h0.Snapshot().Version
	if res := commit(h0, beVM("be", big())); len(res.Placed) != 1 {
		t.Fatalf("placement: %+v", res)
	}
	check("a placement")
	if s := h0.Snapshot(); s.Version <= v0 || s.FreeSlots != 4 || s.FreePPM >= 250_000 {
		t.Fatalf("placement published %+v", s)
	}

	if res := commit(h0, beVM("be-over", big())); len(res.Rejects) != 1 || res.Rejects[0].NoSlot {
		t.Fatalf("want an admission reject, got %+v", res)
	}
	check("an admission reject")

	if res := commit(h0, testVM("ls", big())); len(res.Placed) != 1 || len(res.Shed) != 1 {
		t.Fatalf("want ls placed over a shed be, got %+v", res)
	}
	check("a shed")

	if _, err := h0.CommitDepartures(h0.Snapshot().Version, []string{"ls"}); err != nil {
		t.Fatal(err)
	}
	check("a departure")
	if s := h0.Snapshot(); s.FreeSlots != 5 {
		t.Fatalf("departure published %+v", s)
	}

	if _, err := h0.CommitPlacements(v0, []VM{testVM("stale", eighth())}); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit: %v", err)
	}
	check("a conflict")

	// Torn-write crash, then recovery with nothing to reconcile.
	commit(h1, testVM("keep1", eighth()))
	crashHost(t, h1, faults.CrashTorn, 5)
	check("a torn-write crash")
	if st, err := a.Failover(); err != nil || st.Recovered != 1 {
		t.Fatalf("failover: %+v %v", st, err)
	}
	check("a clean recovery")
	if h1.State() != HostUp {
		t.Fatalf("host 1 is %s after recovery", h1.State())
	}

	// Post-append crash on a placement: recovery deactivates a ghost.
	crashHost(t, h1, faults.CrashPostAppend, 6)
	check("a post-append crash")
	if st, err := a.Failover(); err != nil || st.Recovered != 1 {
		t.Fatalf("failover: %+v %v", st, err)
	}
	check("a recovery with a ghost slot")
	if lg := h1.Ledger(); len(lg[len(lg)-1].GhostSlots) != 1 {
		t.Fatalf("recover seam %+v reconciled no ghost", lg[len(lg)-1])
	}

	// Post-append crash on a departure: recovery frees the slot.
	if _, err := a.Place(testVM("gone", eighth())); err != nil {
		t.Fatal(err)
	}
	gh := hosts[a.Assignments()["gone"]]
	if err := gh.Arm(faults.CrashPlan{Kind: faults.CrashPostAppend, AtAppend: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.Depart("gone"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("crashing departure: %v", err)
	}
	check("a crashing departure")
	if st, err := a.Failover(); err != nil || st.Recovered != 1 || st.Departed != 1 {
		t.Fatalf("failover: %+v %v", st, err)
	}
	check("a recovery with a freed slot")

	// Fail-stop: the host dies, the spare is promoted.
	crashHost(t, h2, faults.CrashFailStop, 8)
	check("a fail-stop crash")
	if st, err := a.Failover(); err != nil || st.Recovered != 0 || st.HostsDown != 1 {
		t.Fatalf("failover: %+v %v", st, err)
	}
	check("death and spare promotion")
	if h2.State() != HostDead || spare.Spare() {
		t.Fatalf("host 2 is %s, spare flag %v; want dead and promoted", h2.State(), spare.Spare())
	}

	// Whole-batch rollback: the controller refuses the flush outright.
	_ = h0.Close()
	res, err := h0.CommitPlacements(h0.Snapshot().Version, []VM{testVM("late", eighth())})
	if err != nil || len(res.Placed) != 0 || len(res.Rejects) != 1 {
		t.Fatalf("commit on a closed controller: %+v %v, want one reject", res, err)
	}
	check("a rolled-back batch")
}

// TestLivePickAllocatesNothing pins the zero-allocation claim for the
// live pick on both of its paths — the strided home hit and the fused
// sweep after a home miss — as a tier-1 assertion, so a regression
// shows up in `go test`, not only in a benchmark's B/op.
func TestLivePickAllocatesNothing(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 64, Cores: 4, Placers: 8, SpareHosts: 4})
	for i := 0; i < 100; i++ {
		if _, err := a.Place(testVM(fmt.Sprintf("vm%d", i), quarter())); err != nil {
			t.Fatal(err)
		}
	}
	live := headroom{cells: a.board}
	for _, tc := range []struct {
		name string
		pd   pend
	}{
		{"home hit", pend{vm: testVM("x", quarter()), host: -1}},
		{"home miss, fused sweep", pend{vm: testVM("y", planner.Util{Num: 8, Den: 1}), host: -1, spareOK: true, banned: []int{0, 9, 63}}},
	} {
		pd := tc.pd
		var got int
		allocs := testing.AllocsPerRun(200, func() {
			for p := 0; p < a.cfg.Placers; p++ {
				got, _ = pick(&live, &pd, p, a.cfg.Placers)
			}
		})
		if got < 0 {
			t.Fatalf("%s: pick found no host", tc.name)
		}
		if allocs != 0 {
			t.Fatalf("%s: live pick allocates %.1f objects per 8 picks, want 0", tc.name, allocs)
		}
	}
}

// TestPartitionIsFNV1a pins the inlined hash to hash/fnv's New32a on
// 10k names: partitions decide home hosts, so a different hash would
// move every placement and every committed CSV.
func TestPartitionIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("%c%d-vm%d", 'a'+rune(rng.Intn(26)), rng.Intn(1000), i)
		if i%100 == 0 {
			name = string(make([]byte, rng.Intn(4))) + "é" + name // empty-ish, NUL and multi-byte prefixes
		}
		placers := 1 + rng.Intn(16)
		h := fnv.New32a()
		h.Write([]byte(name))
		if got, want := partition(name, placers), int(h.Sum32()%uint32(placers)); got != want {
			t.Fatalf("partition(%q, %d) = %d, hash/fnv says %d", name, placers, got, want)
		}
	}
}

// TestDuplicatePlaceRejected is the regression test for the duplicate
// double-placement: Place and PlaceBatch never consulted the registry,
// so a name that was already live landed on a second host (two hosts
// holding it, one registry entry, PlacedNames listing it twice). Now
// the call is refused up front with ErrDuplicate — counted, no host
// touched — whether the name is live, repeats within the batch, or is
// still in flight.
func TestDuplicatePlaceRejected(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 4, Cores: 4, Placers: 2})
	if _, err := a.Place(testVM("x", quarter())); err != nil {
		t.Fatal(err)
	}
	before := make([]Snapshot, 4)
	for i, h := range a.Hosts() {
		before[i] = h.Snapshot()
	}

	if h, err := a.Place(testVM("x", quarter())); !errors.Is(err, ErrDuplicate) || h != -1 {
		t.Fatalf("second Place(x) = %d, %v; want -1, ErrDuplicate", h, err)
	}
	if _, err := a.PlaceBatch([]VM{testVM("y", quarter()), testVM("x", quarter())}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("PlaceBatch holding a live name: %v, want ErrDuplicate", err)
	}
	if _, err := a.PlaceBatch([]VM{testVM("z", quarter()), testVM("z", quarter())}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("PlaceBatch repeating a name: %v, want ErrDuplicate", err)
	}

	live := 0
	for i, h := range a.Hosts() {
		live += h.VMs()
		if got := h.Snapshot(); got != before[i] {
			t.Fatalf("a refused duplicate touched host %d: %+v -> %+v", i, before[i], got)
		}
	}
	if names := a.PlacedNames(); live != 1 || len(a.Assignments()) != 1 || len(names) != 1 {
		t.Fatalf("hosts hold %d VMs, registry %v, placed names %v; want x exactly once", live, a.Assignments(), names)
	}
	if st := a.Stats(); st.Duplicates != 3 || st.Placed != 1 || st.Unplaced != 0 {
		t.Fatalf("stats %+v, want 3 duplicates, 1 placed", st)
	}

	// A refused batch releases every claim it took: its other names, and
	// x itself once departed, place normally.
	if bs, err := a.PlaceBatch([]VM{testVM("y", quarter()), testVM("z", quarter())}); err != nil || bs.Placed != 2 {
		t.Fatalf("re-placing the refused batches' names: %+v %v", bs, err)
	}
	if err := a.Depart("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(testVM("x", quarter())); err != nil {
		t.Fatalf("Place(x) after its departure: %v", err)
	}
	a.mu.Lock()
	inflight := len(a.placing)
	a.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d names still claimed with no placement in flight", inflight)
	}
}
