package verify

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"tableau/internal/core"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/table"
)

// ClassFleet marks cross-host continuity findings: every admitted VM
// is live on exactly one host at every epoch seam — including the
// failure seams — and each host's epoch history tracks its committed
// placement ledger exactly.
const ClassFleet = "fleet"

// CheckFleet is the fleet arbitration oracle, extended across the
// failure seam. A host keeps a bounded record — a ledger Base folding
// the entries it cut, the entries since, and a ring of its newest
// epochs — and the oracle replays exactly that. Per host it replays the
// ledger from its base against the controller's epoch ring, treating
// crash/recover/evacuate ledger entries as first-class seam events:
//
//   - versions increase strictly within every segment, from the base's
//     on, and a rejoin version strictly exceeds everything the journal
//     ever carried, so no pre-crash snapshot can silently double-apply;
//   - at a crash seam the frozen journal image — compacted to a suffix
//     of the journal — must fold to a suffix of the acked commit stream,
//     plus at most one durable-but-unacked record past it, whose slot is
//     the recover seam's reconciled ghost;
//   - a recovered host's epochs must be bit-identical to the independent
//     replay of the crash seam's image (the journal is the ground truth,
//     not the recovering code);
//   - ghost and freed slots claimed by the recover seam must equal the
//     journal-vs-memory delta the oracle computes itself;
//   - the epoch history must be exactly the newest min(ring, replayed)
//     epochs of the replay, each holding guarantees for exactly the
//     slots the replay has active.
//
// Across hosts it merges all ledgers by the arbiter's global commit
// sequence, each host's base inserted at its Seq as a pseudo-event that
// makes its live names live there, and replays placements, departures,
// sheds and seams: a VM placed while live anywhere (the
// no-double-placement guarantee — a reconciled ghost must never also
// count as placed; a base name live elsewhere is placed twice), a
// recover seam whose survivors differ from the replayed occupancy, an
// evacuation that misses or invents a displaced VM, a lost VM that
// resurrects, or a best-effort evacuee re-placed before the last
// latency-sensitive one of its seam are all violations; at the end the
// replayed owner map must equal the arbiter's registry in both
// directions. An evacuation seam accounts for itself: every evacuee is
// recorded lost or re-placed (Rehomed, with the placing host and Seq),
// the wave order is read from those Seqs, and each claim is checked
// against the placing host's commit while it is retained, or against
// its base once it has been cut.
func CheckFleet(a *fleet.Arbiter) []Violation {
	hosts := a.Hosts()
	rs := make([]fleet.Retained, len(hosts))
	for i, h := range hosts {
		rs[i] = h.Retained()
	}
	return checkFleet(rs, a.Assignments())
}

// checkFleet is CheckFleet over what each host retains (indexed by host
// id) and the arbiter's registry.
func checkFleet(rs []fleet.Retained, asg map[string]int) []Violation {
	var out []Violation
	v := func(format string, args ...any) {
		out = append(out, Violation{Class: ClassFleet, VCPU: -1, Detail: fmt.Sprintf(format, args...)})
	}

	type seqCommit struct {
		host int
		c    fleet.Commit
		base *fleet.Base // non-nil: the host's ledger base, at c.Seq
	}
	var all []seqCommit
	seqOwner := make(map[uint64]int)
	for host := range rs {
		r := &rs[host]
		checkHostContinuity(host, r, v)
		if r.Base.Seq > 0 {
			all = append(all, seqCommit{host: host, c: fleet.Commit{Seq: r.Base.Seq}, base: &r.Base})
		}
		for _, c := range r.Ledger {
			if prev, dup := seqOwner[c.Seq]; dup {
				v("commit seq %d issued to both host %d and host %d", c.Seq, prev, host)
			}
			seqOwner[c.Seq] = host
			all = append(all, seqCommit{host: host, c: c})
		}
	}

	sort.Slice(all, func(i, j int) bool { return all[i].c.Seq < all[j].c.Seq })
	owner := make(map[string]int)
	lost := make(map[string]bool)
	// Every evacuation's claimed re-placements, checked against the
	// placing hosts' ledgers once the replay is done.
	type claim struct {
		dead int
		rh   fleet.Rehome
	}
	var claims []claim
	ownedBy := func(host int) map[string]bool {
		set := make(map[string]bool)
		for name, h := range owner {
			if h == host {
				set[name] = true
			}
		}
		return set
	}
	for _, sc := range all {
		c := sc.c
		if sc.base != nil {
			// The host's cut entries left these guests live there. None of
			// its entries precede the base in the replay, so nothing is on
			// the host yet: a base name live elsewhere is placed twice.
			for _, name := range sc.base.Live {
				if oh, live := owner[name]; live {
					v("VM %q live on host %d at host %d's ledger base (seq %d)", name, oh, sc.host, c.Seq)
				}
				if lost[name] {
					v("VM %q live on host %d at its ledger base (seq %d) after being recorded lost", name, sc.host, c.Seq)
				}
				owner[name] = sc.host
			}
			continue
		}
		switch c.Event {
		case "crash":
			// The seam freezes the image; occupancy is unchanged (the
			// crashing batch rolled back).
		case "recover":
			// Journal-committed departures the crash swallowed: each must
			// have been live here.
			for _, name := range c.Departed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q resolved as departed by host %d's recovery while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q resolved as departed by host %d's recovery but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
				}
			}
			// The survivors must be exactly the replayed occupancy: nothing
			// vanishes or appears across a recovery.
			held := ownedBy(sc.host)
			for _, name := range c.Recovered {
				if !held[name] {
					v("host %d recovery claims survivor %q the replay does not place there (seq %d)", sc.host, name, c.Seq)
				}
				delete(held, name)
			}
			for name := range held {
				v("VM %q live on host %d by the replay but missing from its recovery survivors (seq %d)", name, sc.host, c.Seq)
			}
		case "evacuate":
			isLS := make(map[string]bool, len(c.EvacLS)+len(c.EvacBE))
			for _, name := range c.EvacLS {
				isLS[name] = true
			}
			for _, name := range c.EvacBE {
				isLS[name] = false
			}
			held := ownedBy(sc.host)
			for name := range isLS {
				if !held[name] {
					v("host %d evacuation lists %q which the replay does not place there (seq %d)", sc.host, name, c.Seq)
				}
				delete(owner, name)
			}
			for name := range held {
				if _, ok := isLS[name]; !ok {
					v("VM %q live on dead host %d but missing from its evacuation (seq %d)", name, sc.host, c.Seq)
				}
			}
			// Every evacuee is lost or re-placed, exactly once; the
			// re-placements follow the seam, every latency-sensitive one
			// before every best-effort one.
			resolved := make(map[string]bool, len(isLS))
			resolve := func(name, how string) {
				if _, ok := isLS[name]; !ok {
					v("host %d evacuation %s %q it never displaced (seq %d)", sc.host, how, name, c.Seq)
				}
				if resolved[name] {
					v("host %d evacuation resolves %q twice (seq %d)", sc.host, name, c.Seq)
				}
				resolved[name] = true
			}
			for _, name := range c.Lost {
				resolve(name, "loses")
				lost[name] = true
			}
			maxLS, minBE := uint64(0), ^uint64(0)
			for _, rh := range c.Rehomed {
				resolve(rh.Name, "re-places")
				if rh.Seq <= c.Seq {
					v("host %d evacuation re-places %q at seq %d, not after the seam (seq %d)", sc.host, rh.Name, rh.Seq, c.Seq)
				}
				if isLS[rh.Name] {
					maxLS = max(maxLS, rh.Seq)
				} else {
					minBE = min(minBE, rh.Seq)
				}
				claims = append(claims, claim{sc.host, rh})
			}
			for name := range isLS {
				if !resolved[name] {
					v("evacuee %q of host %d neither re-placed nor recorded lost (seq %d)", name, sc.host, c.Seq)
				}
			}
			if maxLS != 0 && minBE < maxLS {
				v("host %d evacuation re-placed a best-effort evacuee (seq %d) before its last latency-sensitive one (seq %d)", sc.host, minBE, maxLS)
			}
		default:
			for _, name := range c.Placed {
				if oh, live := owner[name]; live {
					v("VM %q placed on host %d while live on host %d (seq %d)", name, sc.host, oh, c.Seq)
				}
				if lost[name] {
					v("VM %q placed on host %d after being recorded lost (seq %d)", name, sc.host, c.Seq)
				}
				owner[name] = sc.host
			}
			for _, name := range c.Departed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q departed host %d while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q departed host %d but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
				}
			}
			// A shed is a host-initiated departure: the victim must have been
			// live on exactly the shedding host, and is gone afterwards.
			for _, name := range c.Shed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q shed from host %d while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q shed from host %d but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
				}
			}
		}
	}
	// A re-placement claim names a commit. While the placing host retains
	// it, it must be that host's and place the evacuee; once cut, its Seq
	// must lie within the host's base.
	for _, cl := range claims {
		rh := cl.rh
		if rh.Host < 0 || rh.Host >= len(rs) {
			v("host %d evacuation re-places %q on host %d, which does not exist", cl.dead, rh.Name, rh.Host)
			continue
		}
		i := sort.Search(len(all), func(i int) bool { return all[i].c.Seq >= rh.Seq })
		switch {
		case i < len(all) && all[i].base == nil && all[i].c.Seq == rh.Seq:
			if all[i].host != rh.Host || !slices.Contains(all[i].c.Placed, rh.Name) {
				v("host %d evacuation re-places %q on host %d at seq %d, which that commit does not do", cl.dead, rh.Name, rh.Host, rh.Seq)
			}
		case rh.Seq > rs[rh.Host].Base.Seq:
			v("host %d evacuation re-places %q on host %d at seq %d, which no ledger holds", cl.dead, rh.Name, rh.Host, rh.Seq)
		}
	}

	for name, h := range asg {
		oh, live := owner[name]
		switch {
		case !live:
			v("registry holds VM %q on host %d but the ledgers say it is not live", name, h)
		case oh != h:
			v("registry holds VM %q on host %d but the ledgers say host %d", name, h, oh)
		}
	}
	for name, h := range owner {
		if _, ok := asg[name]; !ok {
			v("VM %q live on host %d by the ledgers but absent from the registry", name, h)
		}
	}
	return out
}

// expectEpoch is one epoch the history must hold: its version, the
// slots that must hold guarantees, and — for epochs adopted from a
// crash seam's journal image — the encoding of the table the image
// decodes to.
type expectEpoch struct {
	version uint64
	active  map[int]bool
	bytes   []byte // non-nil: journal-replay prefix, compare bit-for-bit
}

// checkHostContinuity replays one host's retained ledger from its base
// against its epoch ring, segment by segment across failure seams. Slot
// 0 is the resident system VM, active from epoch 1 on.
func checkHostContinuity(host int, r *fleet.Retained, v func(string, ...any)) {
	hist := r.History
	if len(hist) == 0 {
		v("host %d has no epoch history", host)
		return
	}

	active := make(map[int]bool, len(r.Base.Active))
	for _, s := range r.Base.Active {
		active[s] = true
	}
	if !active[0] {
		v("host %d ledger base (seq %d) has the resident slot inactive", host, r.Base.Seq)
	}
	cloneActive := func() map[int]bool {
		m := make(map[int]bool, len(active))
		for s := range active {
			m[s] = true
		}
		return m
	}
	expect := []expectEpoch{{version: r.Base.Version, active: cloneActive()}}
	last := func() uint64 { return expect[len(expect)-1].version }

	applyOps := func(c fleet.Commit) {
		for _, op := range c.Ops {
			switch op.Kind {
			case core.OpActivate:
				if active[op.Slot] {
					v("host %d commit seq %d activates slot %d twice", host, c.Seq, op.Slot)
				}
				active[op.Slot] = true
			case core.OpDeactivate:
				if !active[op.Slot] {
					v("host %d commit seq %d deactivates inactive slot %d", host, c.Seq, op.Slot)
				}
				delete(active, op.Slot)
			}
		}
	}

	down, dead := false, false
	var pendingFolded []journal.EpochRecord // folded crash image, nil for fail-stop
	var pendingMax uint64                   // max version across the raw image records
	for _, c := range r.Ledger {
		switch c.Event {
		case "crash":
			if down || dead {
				v("host %d crash seam (seq %d) while already down or dead", host, c.Seq)
				return
			}
			down = true
			if c.Version != last() {
				v("host %d crash seam froze version %d but the replayed version is %d", host, c.Version, last())
			}
			pendingFolded, pendingMax = nil, 0
			if c.Image == nil {
				continue
			}
			rep, err := journal.DecodeAll(c.Image)
			if err != nil || len(rep.Records) == 0 {
				v("host %d crash seam image does not decode: %v", host, err)
				continue
			}
			for _, rec := range rep.Records {
				if rec.Version > pendingMax {
					pendingMax = rec.Version
				}
			}
			pendingFolded = journal.FoldEpochs(rep.Records)
			// A compacted journal keeps a suffix of its records, so the image
			// must fold to a suffix of the acked commit stream, plus at most
			// one durable-but-unacked record past it. Epochs older than the
			// replay's start (the ledger base) cannot be checked here; every
			// one after it is.
			acked := len(pendingFolded)
			if pendingFolded[acked-1].Version > last() {
				acked--
			}
			if acked == 0 {
				v("host %d crash image folds to no acked epoch: acked version %d is missing", host, last())
				pendingFolded = nil
				continue
			}
			k := min(acked, len(expect))
			for i := 0; i < k; i++ {
				got, want := pendingFolded[acked-k+i].Version, expect[len(expect)-k+i].version
				if got != want {
					v("host %d crash image is not a suffix of the acked stream: its epoch %d has version %d, the acked stream says %d", host, acked-k+i, got, want)
					break
				}
			}
		case "recover":
			if !down || dead {
				v("host %d recover seam (seq %d) without a preceding crash", host, c.Seq)
				return
			}
			down = false
			if pendingFolded == nil {
				v("host %d recovered from a crash that left no decodable image (seq %d)", host, c.Seq)
				return
			}
			if c.Version <= pendingMax || c.Version <= last() {
				v("host %d rejoin version %d does not exceed the journal's %d / acked %d", host, c.Version, pendingMax, last())
			}
			// The seam's claimed ghost/freed slots must equal the
			// journal-vs-memory delta computed independently here.
			jrec := pendingFolded[len(pendingFolded)-1]
			jact := map[int]bool{}
			for s := 1; s < len(jrec.Slots); s++ {
				if jrec.Slots[s].Active {
					jact[s] = true
				}
			}
			var ghosts, freed []int
			for s := range jact {
				if !active[s] {
					ghosts = append(ghosts, s)
				}
			}
			for s := range active {
				if s != 0 && !jact[s] {
					freed = append(freed, s)
				}
			}
			sort.Ints(ghosts)
			sort.Ints(freed)
			if !sameInts(ghosts, c.GhostSlots) {
				v("host %d recover seam claims ghost slots %v, journal-vs-memory delta says %v", host, c.GhostSlots, ghosts)
			}
			if !sameInts(freed, c.FreedSlots) {
				v("host %d recover seam claims freed slots %v, journal-vs-memory delta says %v", host, c.FreedSlots, freed)
			}
			if len(c.Departed) != len(freed) {
				v("host %d recover seam resolves %d departures for %d freed slots", host, len(c.Departed), len(freed))
			}
			// The recovered epochs are the folded image verbatim — the
			// bit-identical guarantee — plus the rejoin epoch. The folded
			// records' tables decode as one chain.
			jact[0] = true
			encs := make([][]byte, len(pendingFolded))
			for i := range pendingFolded {
				encs[i] = pendingFolded[i].TableEncoding()
			}
			tables, err := table.DecodeChain(encs, len(encs))
			if err != nil {
				v("host %d crash image tables do not decode: %v", host, err)
				return
			}
			next := make([]expectEpoch, 0, len(pendingFolded)+1)
			for i := range pendingFolded {
				rec := &pendingFolded[i]
				ra := make(map[int]bool, len(rec.Slots))
				for s, sc := range rec.Slots {
					if sc.Active {
						ra[s] = true
					}
				}
				next = append(next, expectEpoch{version: rec.Version, active: ra, bytes: epochBytes(core.Epoch{Table: tables[i]})})
			}
			expect = next
			active = jact
			applyOps(c)
			expect = append(expect, expectEpoch{version: c.Version, active: cloneActive()})
			pendingFolded, pendingMax = nil, 0
		case "evacuate":
			if !down || dead {
				v("host %d evacuate seam (seq %d) without a preceding crash", host, c.Seq)
				return
			}
			dead = true
		default:
			if down || dead {
				v("host %d commit seq %d while down or dead", host, c.Seq)
				return
			}
			if c.Version <= last() {
				v("host %d commit seq %d installed version %d, not past %d", host, c.Seq, c.Version, last())
			}
			applyOps(c)
			expect = append(expect, expectEpoch{version: c.Version, active: cloneActive()})
		}
	}

	// The history is the ring: exactly the newest min(ring, replayed)
	// epochs of the replay.
	if r.Ring > 0 && len(expect) > r.Ring {
		expect = expect[len(expect)-r.Ring:]
	}
	if len(hist) != len(expect) {
		v("host %d holds %d epochs but its ring of %d over the replayed ledger expects %d", host, len(hist), r.Ring, len(expect))
		return
	}
	for i := range hist {
		ep := hist[i]
		want := expect[i]
		if ep.Version != want.version {
			v("host %d epoch %d has version %d, replay expects %d", host, i, ep.Version, want.version)
			continue
		}
		if want.bytes != nil && !bytes.Equal(epochBytes(ep), want.bytes) {
			v("host %d epoch %d (version %d) is not bit-identical to the journal replay", host, i, ep.Version)
		}
		held := make(map[int]bool, len(ep.Guarantees))
		for _, g := range ep.Guarantees {
			if held[g.VCPU] {
				v("host %d epoch %d holds duplicate guarantees for slot %d", host, ep.Version, g.VCPU)
			}
			held[g.VCPU] = true
		}
		for slot := range want.active {
			if !held[slot] {
				v("host %d epoch %d: live slot %d lost its guarantee", host, ep.Version, slot)
			}
		}
		for slot := range held {
			if !want.active[slot] {
				v("host %d epoch %d: slot %d holds a guarantee but no committed op activated it", host, ep.Version, slot)
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
