package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/planner"
)

// churnedFleet runs seeded live churn through a small fleet until its
// hosts have cut their ledgers; journaled fleets also crash host 0 with
// a torn write and recover it at the end, so its retained ledger ends on
// that crash/recover pair and its crash image is a compacted journal.
func churnedFleet(t *testing.T, journaled bool) *fleet.Arbiter {
	t.Helper()
	a, err := fleet.New(fleet.Config{
		Hosts: 4, Cores: 4, SlotsPerHost: 10, Placers: 2, Cache: planner.NewCache(64), Journal: journaled,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	rng := rand.New(rand.NewSource(9))
	utils := []planner.Util{{Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	for i := 0; i < 120; i++ {
		vm := fleet.VM{Name: fmt.Sprintf("c%d", i), Util: utils[rng.Intn(len(utils))], LatencyGoal: 20_000_000}
		if rng.Intn(4) == 0 {
			vm.Class = planner.BE
		}
		if _, err := a.Place(vm); err != nil && !errors.Is(err, fleet.ErrUnplaced) {
			t.Fatal(err)
		}
		if names := a.PlacedNames(); len(names) > 10 {
			if err := a.Depart(names[rng.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if journaled {
		h := a.Hosts()[0]
		if err := h.Arm(faults.CrashPlan{Kind: faults.CrashTorn, AtAppend: 1, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		doomed := fleet.VM{Name: "doomed", Util: utils[0], LatencyGoal: 20_000_000}
		if _, err := h.CommitPlacements(h.Snapshot().Version, []fleet.VM{doomed}); !errors.Is(err, fleet.ErrHostDown) {
			t.Fatalf("crashing commit: %v", err)
		}
		if st, err := a.Failover(); err != nil || st.Recovered != 1 {
			t.Fatalf("failover: %+v, %v", st, err)
		}
	}
	if !ledgersTrimmed(a) {
		t.Fatal("no host cut its ledger: the mutants would not touch a base")
	}
	return a
}

func retainedOf(a *fleet.Arbiter) []fleet.Retained {
	var rs []fleet.Retained
	for _, h := range a.Hosts() {
		rs = append(rs, h.Retained())
	}
	return rs
}

// TestCheckFleetConvictsCorruptBase: a base is what the oracle replays a
// host from, so a base that misstates what the host held must be
// convicted — by the host's own replay or by the cross-host one. A
// churned fleet whose ledgers were cut replays clean; then, one at a
// time, a host's base drops a live guest, adds a guest live on another
// host, adds one live nowhere, deactivates a live slot, activates an
// idle one, or claims the version its first retained commit installed.
func TestCheckFleetConvictsCorruptBase(t *testing.T) {
	a := churnedFleet(t, false)
	rs, asg := retainedOf(a), a.Assignments()
	if vs := checkFleet(rs, asg); len(vs) != 0 {
		t.Fatalf("the uncorrupted fleet has violations: %v", vs)
	}
	victim := -1
	for i, r := range rs {
		if r.Base.Seq > 0 && len(r.Base.Live) > 0 && len(r.Base.Active) > 1 && len(r.Ledger) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no host has a base with guests to corrupt")
	}
	elsewhere := ""
	for name, h := range asg {
		if h != victim && (elsewhere == "" || name < elsewhere) {
			elsewhere = name
		}
	}
	idle := 1
	for slices.Contains(rs[victim].Base.Active, idle) {
		idle++
	}
	mutants := []struct {
		name   string
		mutate func(b *fleet.Base)
	}{
		{"drops-a-guest", func(b *fleet.Base) { b.Live = b.Live[1:] }},
		{"adds-a-guest-live-elsewhere", func(b *fleet.Base) { b.Live = append(b.Live, elsewhere); slices.Sort(b.Live) }},
		{"adds-a-guest-live-nowhere", func(b *fleet.Base) { b.Live = append(b.Live, "nobody") }},
		{"deactivates-a-live-slot", func(b *fleet.Base) { b.Active = b.Active[:len(b.Active)-1] }},
		{"activates-an-idle-slot", func(b *fleet.Base) { b.Active = append(b.Active, idle); slices.Sort(b.Active) }},
		{"claims-a-later-version", func(b *fleet.Base) { b.Version = rs[victim].Ledger[0].Version }},
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			evil := slices.Clone(rs)
			b := &evil[victim].Base
			b.Live, b.Active = slices.Clone(b.Live), slices.Clone(b.Active)
			m.mutate(b)
			vs := checkFleet(evil, asg)
			if len(vs) == 0 {
				t.Fatalf("host %d's corrupted base %+v escaped the fleet oracle", victim, *b)
			}
			t.Logf("convicted: %s", vs[0].Detail)
		})
	}
}

// TestCheckFleetConvictsBadCompaction: a crash image must fold to a
// suffix of the acked stream (plus at most one unacked record), so a
// compaction that dropped the newest record or kept a non-suffix must
// be convicted, while a shorter suffix — what any correct compaction
// leaves, starting at a full record — is not.
func TestCheckFleetConvictsBadCompaction(t *testing.T) {
	a := churnedFleet(t, true)
	r := a.Hosts()[0].Retained()
	crash := slices.IndexFunc(r.Ledger, func(c fleet.Commit) bool { return c.Event == "crash" })
	if crash < 0 || r.Ledger[crash].Image == nil {
		t.Fatal("host 0 retains no crash image")
	}
	rep, err := journal.DecodeAll(r.Ledger[crash].Image)
	if err != nil || len(rep.Records) < 3 {
		t.Fatalf("crash image holds %d records (%v), want at least 3", len(rep.Records), err)
	}
	// full is the newest full record: a compaction may cut there, and
	// dropping the record before it keeps every delta's base. It must
	// leave a record before that one for the non-suffix below.
	n := len(rep.Records)
	full := n - 1
	for full > 0 && rep.Records[full].TableDelta != nil {
		full--
	}
	if full < 2 {
		t.Fatalf("crash image of %d records has its newest full record at %d, want one at 2 or later", n, full)
	}
	check := func(keep func(i int) bool) []string {
		t.Helper()
		img := journal.AppendHeader(nil)
		var base *journal.EpochRecord
		for i := range rep.Records {
			if keep(i) {
				if img, err = journal.AppendRecord(img, &rep.Records[i], base); err != nil {
					t.Fatal(err)
				}
				base = &rep.Records[i]
			}
		}
		mut := r
		mut.Ledger = slices.Clone(r.Ledger)
		mut.Ledger[crash].Image = img
		var vs []string
		checkHostContinuity(0, &mut, func(format string, args ...any) { vs = append(vs, fmt.Sprintf(format, args...)) })
		return vs
	}
	if vs := check(func(int) bool { return true }); len(vs) != 0 {
		t.Fatalf("the image as compacted has violations: %v", vs)
	}
	if vs := check(func(i int) bool { return i >= full }); len(vs) != 0 {
		t.Fatalf("a shorter suffix of the image has violations: %v", vs)
	}
	for _, m := range []struct {
		name string
		keep func(i int) bool
	}{
		{"drops-the-newest-record", func(i int) bool { return i < n-1 }},
		{"keeps-a-non-suffix", func(i int) bool { return i != full-1 }},
	} {
		if vs := check(m.keep); len(vs) == 0 {
			t.Errorf("a compaction that %s escaped the crash-seam oracle", m.name)
		} else {
			t.Logf("%s convicted: %s", m.name, vs[0])
		}
	}
}
