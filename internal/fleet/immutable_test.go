package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tableau/internal/core"
	"tableau/internal/faults"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// failCore fail-stops core c of h through its controller, the way the
// host's hypervisor would report it, and takes the emergency epoch as
// the host's committed version.
func failCore(t *testing.T, h *Host, c int) {
	t.Helper()
	h.mu.Lock()
	defer h.unlockPublished()
	h.ctrl.Submit(core.Op{Kind: core.OpFailCore, Core: c})
	tr, err := h.ctrl.Flush()
	if err != nil || tr.Version == 0 {
		t.Fatalf("failing core %d of host %d: %+v, %v", c, h.ID(), tr, err)
	}
	h.version = tr.Version
}

// cachedPlan looks h's current population up in the shared cache, as
// core.System keys it: the resident in slot 0, each guest "s<slot>"
// under its slot id, on the host's online cores. A hit must encode as a
// fresh plan of the same input does: nothing wrote to it since it was
// planned.
func cachedPlan(t *testing.T, h *Host, cache *planner.Cache) (*planner.Result, bool) {
	t.Helper()
	h.mu.Lock()
	specs := []planner.VCPUSpec{{Name: residentName, Util: residentUtil, LatencyGoal: residentGoal, Capped: true}}
	for slot, vm := range h.slotGuest {
		if vm.Name != "" {
			specs = append(specs, planner.VCPUSpec{
				ID: slot, Name: fmt.Sprintf("s%d", slot), Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: true, Class: vm.Class,
			})
		}
	}
	h.mu.Unlock()
	opts := planner.Options{Cores: h.cores - len(h.sys.FailedCores())}
	res, hit, err := cache.Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		fresh, err := planner.Plan(specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.Table.AppendEncodedCompact(nil)
		want, _ := fresh.Table.AppendEncodedCompact(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("host %d: the cached plan of its population is not what planning it gives", h.ID())
		}
	}
	return res, hit
}

// TestSharedTablesStayImmutable: hosts whose populations coincide place
// the cached planner Result's allocation lists themselves, not copies,
// so nothing a host does may write a table. A cached Result's table,
// and every epoch table the hosts installed along the way, encodes to
// the bytes it had when first seen — the Results each host's last plan
// came from too — after 1000 place/depart pairs, a
// core failure on two hosts (which then share 3-core plans) and a host
// crash followed by Failover.
func TestSharedTablesStayImmutable(t *testing.T) {
	cache := planner.NewCache(256)
	a := testArbiter(t, Config{Hosts: 4, Cores: 4, SlotsPerHost: 10, Placers: 2, Journal: true, Cache: cache})
	encode := func(tbl *table.Table) []byte {
		t.Helper()
		enc, err := tbl.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	// Every host planned the resident alone; the cache served them all.
	resident := []planner.VCPUSpec{{Name: residentName, Util: residentUtil, LatencyGoal: residentGoal, Capped: true}}
	cached, hit, err := cache.Plan(resident, planner.Options{Cores: 4})
	if err != nil || !hit {
		t.Fatalf("the hosts' first plan is not cached: hit %v, %v", hit, err)
	}
	want := encode(cached.Table)
	for _, h := range a.Hosts() {
		shared := false
		for c, ct := range h.History()[0].Table.Cores {
			as := cached.Table.Cores[c].Allocs
			shared = shared || len(as) > 0 && len(ct.Allocs) == len(as) && &ct.Allocs[0] == &as[0]
		}
		if !shared {
			t.Fatalf("host %d's first epoch copies the cached plan instead of placing it", h.ID())
		}
	}

	type seen struct {
		tbl *table.Table
		enc []byte
	}
	var tables []seen
	hits := 0
	record := func() {
		for _, h := range a.Hosts() {
			if h.State() != HostUp {
				continue
			}
			for _, ep := range h.History() {
				tables = append(tables, seen{ep.Table, encode(ep.Table)})
			}
			if res, hit := cachedPlan(t, h, cache); hit {
				tables = append(tables, seen{res.Table, encode(res.Table)})
				hits++
			}
		}
	}
	record()

	rng := rand.New(rand.NewSource(1))
	utils := []planner.Util{{Num: 1, Den: 16}, {Num: 1, Den: 8}, {Num: 1, Den: 4}}
	var live []string
	for i := 0; i < 1000; i++ {
		switch i {
		case 300:
			failCore(t, a.Hosts()[1], 2)
			failCore(t, a.Hosts()[2], 2)
		case 600:
			crashHost(t, a.Hosts()[0], faults.CrashTorn, 3)
			if _, err := a.Failover(); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("vm%d", i)
		if _, err := a.Place(testVM(name, utils[rng.Intn(len(utils))])); err == nil {
			live = append(live, name)
		}
		if len(live) > 10 {
			j := rng.Intn(len(live))
			if err := a.Depart(live[j]); err != nil {
				t.Fatalf("departing %s: %v", live[j], err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		if i%50 == 49 {
			record()
		}
	}
	total, _ := cache.Stats()
	t.Logf("%d cache hits; %d of %d tables checked are the hosts' last plans", total, hits, len(tables))
	if total < 100 || hits < 40 {
		t.Fatalf("%d cache hits, %d of them the hosts' last plans: the hosts barely shared a plan", total, hits)
	}
	if !bytes.Equal(encode(cached.Table), want) {
		t.Error("the cached Result's table was written to")
	}
	for i, s := range tables {
		if !bytes.Equal(encode(s.tbl), s.enc) {
			t.Fatalf("table %d (generation %d) was written to after it was first seen", i, s.tbl.Generation)
		}
	}
}
