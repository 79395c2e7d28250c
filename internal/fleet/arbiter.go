package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tableau/internal/core"
	"tableau/internal/faults"
	"tableau/internal/planner"
)

// Config sizes the fleet.
type Config struct {
	// Hosts is the number of simulated hosts; Cores the guest cores per
	// host; SlotsPerHost the VM slots per host (slot 0 is the resident
	// system VM). SlotsPerHost defaults to 2*Cores+4.
	Hosts, Cores, SlotsPerHost int
	// Placers is the number of logical placer partitions arrivals are
	// hashed across (default 8, clamped to Hosts). Each placer prefers
	// hosts of its home partition (host%Placers == placer), so same-host
	// contention is rare but real on the cross-partition fallback.
	Placers int
	// MaxAttempts bounds placement attempts per VM, conflicts and
	// rejects combined (default 4).
	MaxAttempts int
	// SpareHosts reserves that many hosts at the tail of the id space
	// as a spare pool: placers only consider them for VMs that have
	// already been rejected somewhere (the fleet-level shed-retry).
	// When a regular host dies, a spare is promoted to replace it.
	SpareHosts int
	// Cache, when set, is shared by every host's planner — the paper's
	// central table cache at fleet scale.
	Cache *planner.Cache
	// ForEach, when set, runs fn(i) for i in [0,n) with slot-indexed
	// determinism (experiments.ForEach); nil runs serially. The arbiter
	// only relies on per-cell isolation, never on execution order, so
	// any such runner keeps batch placement deterministic.
	ForEach func(n int, fn func(i int) error) error
	// Journal attaches a durable epoch journal (an in-memory store behind
	// an armable crash store) to every host, making each Controller.Flush
	// a journaled commit — the substrate of ArmCrashes/Failover. The
	// journal is compacted to the few records that rebuild the host's
	// two-epoch ring, so a journaled host's memory is as flat under churn
	// as an unjournaled one's. Off by default: a fleet that never crashes
	// has no use for it.
	Journal bool
}

func (c *Config) setDefaults() error {
	if c.Hosts <= 0 || c.Cores <= 0 {
		return fmt.Errorf("fleet: config needs Hosts and Cores >= 1, got %d/%d", c.Hosts, c.Cores)
	}
	if c.SlotsPerHost == 0 {
		c.SlotsPerHost = 2*c.Cores + 4
	}
	if c.Placers <= 0 {
		c.Placers = 8
	}
	if c.Placers > c.Hosts {
		c.Placers = c.Hosts
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.SpareHosts < 0 || c.SpareHosts >= c.Hosts {
		return fmt.Errorf("fleet: SpareHosts %d out of range for %d hosts", c.SpareHosts, c.Hosts)
	}
	return nil
}

// firstWave is the class Failover evacuates first. The tests invert it
// (export_test.go) to check that the cross-seam oracle convicts a
// BE-first evacuation.
var firstWave = planner.LS

// Arbiter is the fleet's shared-state placement layer: N hosts, the
// headroom board they publish to, a registry of which host holds which
// VM, and the optimistic read/commit/retry protocol placers run
// against the hosts.
type Arbiter struct {
	cfg    Config
	hosts  []*Host
	board  []cell // board[i] is hosts[i]'s published headroom
	seqCtr atomic.Uint64
	closed atomic.Bool

	mu       sync.Mutex
	vmHost   map[string]int
	placing  map[string]struct{} // names claimed by an in-flight Place/PlaceBatch
	order    []string            // live VM names, deterministic under deterministic traffic
	orderPos map[string]int
	stats    Stats
}

// New builds the fleet: Hosts hosts, each planned and wrapped in its
// own Controller (fanned out through Config.ForEach — with a shared
// cache the first host's initial plan serves all of them).
func New(cfg Config) (*Arbiter, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// The registry is sized for every guest slot of the fleet, the most it
	// can ever hold. A Go map under churn grows and splits its tables as
	// deletions pile up, on a schedule its hash seed decides; unsized, the
	// registry's footprint wandered by ~130 KB between identical runs —
	// sized, it never has to grow.
	guestSlots := cfg.Hosts * (cfg.SlotsPerHost - 1)
	a := &Arbiter{
		cfg:      cfg,
		hosts:    make([]*Host, cfg.Hosts),
		board:    make([]cell, cfg.Hosts),
		placing:  make(map[string]struct{}),
		vmHost:   make(map[string]int, guestSlots),
		orderPos: make(map[string]int, guestSlots),
	}
	// Hosts are carved from one slab in id order, so a sweep through
	// Hosts() (Snapshot of every host, say) walks memory forward instead
	// of chasing a thousand separately allocated structs.
	slab := make([]Host, cfg.Hosts)
	err := a.forEach(cfg.Hosts, func(i int) error {
		a.hosts[i] = &slab[i]
		return initHost(&slab[i], i, cfg.Cores, cfg.SlotsPerHost, cfg.Cache, a.nextSeq,
			i >= cfg.Hosts-cfg.SpareHosts, cfg.Journal, &a.board[i])
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Arbiter) nextSeq() uint64 { return a.seqCtr.Add(1) }

func (a *Arbiter) forEach(n int, fn func(i int) error) error {
	if a.cfg.ForEach != nil {
		return a.cfg.ForEach(n, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Hosts returns the fleet's hosts in id order.
func (a *Arbiter) Hosts() []*Host { return append([]*Host(nil), a.hosts...) }

// Stats returns the cumulative placement counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Assignments returns a copy of the live VM -> host registry.
func (a *Arbiter) Assignments() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.vmHost))
	for k, v := range a.vmHost {
		out[k] = v
	}
	return out
}

// PlacedNames returns the live VM names in a deterministic order (the
// registry's insertion order with swap-removals — stable across runs
// for the same deterministic op sequence).
func (a *Arbiter) PlacedNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// ControllerTotals sums the hosts' controller counters.
func (a *Arbiter) ControllerTotals() core.Stats {
	var t core.Stats
	for _, h := range a.hosts {
		s := h.ControllerStats()
		t.Flushes += s.Flushes
		t.Transitions += s.Transitions
		t.OpsCoalesced += s.OpsCoalesced
		t.Rejections += s.Rejections
		t.Rollbacks += s.Rollbacks
		t.PlannerCalls += s.PlannerCalls
		t.Compactions += s.Compactions
	}
	return t
}

// Close shuts every host down. Idempotent, and safe against concurrent
// Place/Depart/PlaceBatch: in-flight commits serialize against each
// host's lock, and operations arriving after the close observe
// ErrClosed (or a per-VM controller-closed reject they retry into
// Unplaced).
func (a *Arbiter) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, h := range a.hosts {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ArmCrashes arms a seeded crash storm: each victim host's journal
// store gets its crash plan. Hosts that are not Up (killed by an
// earlier storm and not yet recovered) are skipped; the count of hosts
// actually armed is returned.
func (a *Arbiter) ArmCrashes(plan faults.HostCrashPlan) (int, error) {
	if err := plan.Validate(len(a.hosts)); err != nil {
		return 0, err
	}
	armed := 0
	for _, c := range plan.Crashes {
		err := a.hosts[c.Host].Arm(c.Plan)
		switch {
		case err == nil:
			armed++
		case errors.Is(err, ErrHostDown) || errors.Is(err, faults.ErrCrashed):
			// Already down or dead: the storm passes it by.
		default:
			return armed, err
		}
	}
	return armed, nil
}

// pend is one VM still looking for a host.
type pend struct {
	vm       VM
	attempts int
	spareOK  bool   // rejected somewhere: eligible for the spare pool
	banned   []int  // hosts that rejected it or were down (<= MaxAttempts)
	host     int    // placed host (-1 until placed)
	seq      uint64 // Seq of the placing commit, once placed
}

func newPend(vm VM) *pend { return &pend{vm: vm, host: -1} }

func (p *pend) ban(host int) {
	p.banned = append(p.banned, host)
	p.spareOK = true
}

// freeze copies the board into one slice of views: the round-start
// state every placer of a PlaceBatch round decides from and every
// commit of the round names the version of.
func (a *Arbiter) freeze() []hostView {
	views := make([]hostView, len(a.board))
	for i := range a.board {
		views[i] = a.board[i].view()
	}
	return views
}

// placeWork drives pends through the optimistic placement protocol
// until each is placed, unplaced, or out of attempts. It returns the
// batch's counters without folding them into the cumulative stats —
// that is the caller's job (PlaceBatch adds them directly; Failover
// merges them with the failover accounting first). Placed pends carry
// their host in pd.host.
func (a *Arbiter) placeWork(work []*pend) (Stats, error) {
	var bs Stats
	for len(work) > 0 {
		base := a.freeze()

		parts := make([][]*pend, a.cfg.Placers)
		for _, pd := range work {
			p := partition(pd.vm.Name, a.cfg.Placers)
			parts[p] = append(parts[p], pd)
		}
		type decision struct {
			pd   *pend
			host int
		}
		decisions := make([][]decision, a.cfg.Placers)
		_ = a.forEach(a.cfg.Placers, func(p int) error {
			view := headroom{cells: a.board, frozen: base}
			for _, pd := range parts[p] {
				h, _ := pick(&view, pd, p, a.cfg.Placers)
				decisions[p] = append(decisions[p], decision{pd, h})
				if h >= 0 {
					view.take(h, pd.vm)
				}
			}
			return nil
		})

		// Group decisions into per-(host, placer) commit batches. The
		// outer placer loop ascends, so each host's batch list is
		// placer-ordered — the deterministic stand-in for arrival order.
		type hostBatch struct {
			pends    []*pend
			result   CommitResult
			conflict bool
			down     bool
			err      error
		}
		byHost := make([][]*hostBatch, len(a.hosts))
		var touched []int
		var noHost []*pend
		for p := 0; p < a.cfg.Placers; p++ {
			batchOf := make(map[int]*hostBatch)
			for _, d := range decisions[p] {
				if d.host < 0 {
					noHost = append(noHost, d.pd)
					continue
				}
				b := batchOf[d.host]
				if b == nil {
					b = &hostBatch{}
					batchOf[d.host] = b
					if len(byHost[d.host]) == 0 {
						touched = append(touched, d.host)
					}
					byHost[d.host] = append(byHost[d.host], b)
				}
				b.pends = append(b.pends, d.pd)
			}
		}

		_ = a.forEach(len(touched), func(i int) error {
			h := touched[i]
			for _, b := range byHost[h] {
				batch := make([]VM, len(b.pends))
				for j, pd := range b.pends {
					batch[j] = pd.vm
				}
				res, err := a.hosts[h].CommitPlacements(base[h].version, batch)
				switch {
				case errors.Is(err, ErrConflict):
					b.conflict = true
				case errors.Is(err, ErrHostDown):
					b.down = true
				case err != nil:
					b.err = err
				default:
					b.result = res
				}
			}
			return nil
		})

		// Aggregate in deterministic order: hosts ascending, batches
		// placer-ordered, pends in decision order.
		var next []*pend
		retry := func(pd *pend) {
			pd.attempts++
			if pd.attempts < a.cfg.MaxAttempts {
				bs.Retries++
				next = append(next, pd)
			} else {
				bs.Unplaced++
			}
		}
		a.mu.Lock()
		for h := range byHost {
			for _, b := range byHost[h] {
				if b.err != nil {
					a.mu.Unlock()
					return bs, b.err
				}
				if b.conflict || b.down {
					// A down host resolves in-flight commits exactly like a
					// conflict: nothing placed (even a journal-durable ghost
					// is deactivated before the host rejoins), so the placer
					// refreshes and retries elsewhere.
					for _, pd := range b.pends {
						bs.Conflicts++
						if b.down {
							pd.ban(h)
						}
						retry(pd)
					}
					continue
				}
				placed := make(map[string]bool, len(b.result.Placed))
				for _, name := range b.result.Placed {
					placed[name] = true
				}
				rejects := make(map[string]Reject, len(b.result.Rejects))
				for _, rj := range b.result.Rejects {
					rejects[rj.VM.Name] = rj
				}
				for _, pd := range b.pends {
					if placed[pd.vm.Name] {
						bs.Placed++
						if base[h].spare() {
							bs.SparePlacements++
						}
						pd.host, pd.seq = h, b.result.Seq
						a.recordPlacedLocked(pd.vm.Name, h)
						continue
					}
					if rejects[pd.vm.Name].NoSlot {
						bs.SlotRejects++
					} else {
						bs.AdmissionRejects++
					}
					pd.ban(h)
					retry(pd)
				}
				// Best-effort guests the host shed to admit this batch are
				// gone from the host; drop them from the registry. Runs
				// after the pend loop so a VM placed and shed in the same
				// commit is recorded and then removed.
				for _, name := range b.result.Shed {
					a.removePlacedLocked(name)
					bs.Shed++
				}
			}
		}
		a.mu.Unlock()
		// VMs no unbanned host could even hold a slot for are terminal.
		bs.Unplaced += int64(len(noHost))
		work = next
	}
	return bs, nil
}

// PlaceBatch places a batch of VMs through the optimistic protocol,
// deterministically at any parallelism. Each round freezes the board
// once, partitions the still-unplaced VMs across the placers (fanned
// out via Config.ForEach), and lets every placer pick targets against
// that one frozen copy under its own virtual decrements; then the
// chosen placements commit per host, placer-ordered. The first
// committer on a host wins; later placers' batches named the
// round-start version, so they lose with ErrConflict and retry next
// round against a fresh freeze — the same protocol concurrent placers
// run, with the race made reproducible. Rejected VMs ban the host, gain
// spare-pool eligibility, and retry; MaxAttempts bounds every retry
// path. A batch naming a VM that is already live (or twice) is refused
// whole with ErrDuplicate.
func (a *Arbiter) PlaceBatch(vms []VM) (Stats, error) {
	if a.closed.Load() {
		return Stats{}, ErrClosed
	}
	if err := a.claim(vms); err != nil {
		return Stats{}, err
	}
	work := make([]*pend, len(vms))
	for i, vm := range vms {
		work[i] = newPend(vm)
	}
	bs, err := a.placeWork(work)
	a.mu.Lock()
	for _, vm := range vms {
		delete(a.placing, vm.Name)
	}
	if err == nil {
		a.stats.add(bs)
	}
	a.mu.Unlock()
	return bs, err
}

// claim reserves every name for an in-flight placement, or none. A name
// that is already live, is being placed by another call, or repeats
// within vms fails the whole call with ErrDuplicate (counted) before
// any host is touched: hosts only know their own guests, so "live on at
// most one host" is the registry's to enforce. The caller releases the
// claim in the critical section that records the outcome.
func (a *Arbiter) claim(vms []VM) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, vm := range vms {
		_, live := a.vmHost[vm.Name]
		_, busy := a.placing[vm.Name]
		if live || busy {
			for _, undo := range vms[:i] {
				delete(a.placing, undo.Name)
			}
			a.stats.Duplicates++
			return fmt.Errorf("fleet: placement of %q: %w", vm.Name, ErrDuplicate)
		}
		a.placing[vm.Name] = struct{}{}
	}
	return nil
}

// DepartBatch tears the named VMs down on their owning hosts,
// deterministically at any parallelism: departures group by owner and
// each host's group commits with a refresh-on-conflict loop (conflicts
// cannot occur from DepartBatch itself — one committer per host — but
// the loop keeps the protocol uniform). Every name must be live.
// Departures whose owning host is down are deferred: the VMs stay
// registered (removing them without a host commit would fork the
// ledger from the registry) until Failover resolves the host.
func (a *Arbiter) DepartBatch(names []string) (Stats, error) {
	if a.closed.Load() {
		return Stats{}, ErrClosed
	}
	var bs Stats
	a.mu.Lock()
	byHost := make(map[int][]string)
	var touched []int
	for _, name := range names {
		h, ok := a.vmHost[name]
		if !ok {
			a.mu.Unlock()
			return bs, fmt.Errorf("fleet: departure of unknown VM %q", name)
		}
		if len(byHost[h]) == 0 {
			touched = append(touched, h)
		}
		byHost[h] = append(byHost[h], name)
	}
	a.mu.Unlock()

	conflicts := make([]int64, len(touched))
	deferred := make([]bool, len(touched))
	err := a.forEach(len(touched), func(i int) error {
		h := touched[i]
		for attempt := 0; ; attempt++ {
			snap := a.hosts[h].Snapshot()
			if snap.State != HostUp {
				deferred[i] = true
				return nil
			}
			_, err := a.hosts[h].CommitDepartures(snap.Version, byHost[h])
			if errors.Is(err, ErrConflict) && attempt < 8 {
				conflicts[i]++
				continue
			}
			if errors.Is(err, ErrHostDown) {
				deferred[i] = true
				return nil
			}
			return err
		}
	})
	if err != nil {
		return bs, err
	}
	a.mu.Lock()
	for i, h := range touched {
		bs.Conflicts += conflicts[i]
		bs.Retries += conflicts[i]
		if deferred[i] {
			bs.DepartsDeferred += int64(len(byHost[h]))
			continue
		}
		for _, name := range byHost[h] {
			a.removePlacedLocked(name)
			bs.Departed++
		}
	}
	a.stats.add(bs)
	a.mu.Unlock()
	return bs, nil
}

// Failover sweeps the fleet for down hosts and resolves each one:
// recover — replay the surviving journal image via core.Recover,
// reconcile the crash seam (ghost deactivations, journal-committed
// departures), and rejoin with a bumped version — or, when no image
// survived (fail-stop) or the replay failed, declare the host dead and
// evacuate. Evacuation re-places the displaced guests through the
// normal protocol in LS-first waves (every latency-sensitive evacuee
// is offered a slot before any best-effort one), with immediate
// spare-pool eligibility, spare promotion to backfill dead regular
// hosts, and best-effort sheds allowed under pressure; evacuees no
// host can take are recorded as Lost on the dead host's evacuation
// seam — every displaced VM ends live on exactly one host, explicitly
// shed, or explicitly lost. The sweep loops until no host is down, so
// hosts crashed by the evacuation traffic itself are resolved too.
func (a *Arbiter) Failover() (Stats, error) {
	if a.closed.Load() {
		return Stats{}, ErrClosed
	}
	var bs Stats
	for {
		var downs []*Host
		for _, h := range a.hosts {
			if h.State() == HostDown {
				downs = append(downs, h)
			}
		}
		if len(downs) == 0 {
			break
		}
		type evacuation struct {
			host   *Host
			seq    uint64
			ls, be []*pend
		}
		var evacs []*evacuation
		for _, h := range downs {
			bs.HostsDown++
			guests := h.LiveGuests()
			bs.Displaced += int64(len(guests))
			if freed, err := h.Recover(); err == nil {
				bs.Recovered++
				a.mu.Lock()
				for _, name := range freed {
					// The journal proves the departure committed before the
					// crash; the crash just swallowed the ack.
					a.removePlacedLocked(name)
					bs.Departed++
				}
				a.mu.Unlock()
				continue
			}
			// No surviving image, or the replay failed: dead. A regular
			// host's death promotes the lowest-id healthy spare.
			wasSpare := h.Spare()
			if err := h.markDead(); err != nil {
				return bs, err
			}
			if !wasSpare {
				a.promoteSpare()
			}
			ev := &evacuation{host: h, seq: a.nextSeq()}
			a.mu.Lock()
			for _, vm := range guests {
				a.removePlacedLocked(vm.Name)
				pd := newPend(vm)
				pd.spareOK = true
				if vm.Class == planner.BE {
					ev.be = append(ev.be, pd)
				} else {
					ev.ls = append(ev.ls, pd)
				}
			}
			a.mu.Unlock()
			evacs = append(evacs, ev)
		}

		// Two strict waves across all of this pass's dead hosts: every
		// LS evacuee is placed (or exhausted) before any BE evacuee is
		// offered a slot, so the displacement order is part of the
		// fleet's guarantee, not an accident of traversal.
		var first, second []*pend
		for _, ev := range evacs {
			first = append(first, ev.ls...)
			second = append(second, ev.be...)
		}
		if firstWave == planner.BE {
			first, second = second, first
		}
		for _, wave := range [][]*pend{first, second} {
			if len(wave) == 0 {
				continue
			}
			ws, err := a.placeWork(wave)
			if err != nil {
				return bs, err
			}
			bs.add(ws)
			bs.Evacuated += ws.Placed
			bs.EvacSheds += ws.Shed
		}
		for _, ev := range evacs {
			var evacLS, evacBE, lost []string
			var rehomed []Rehome
			resolve := func(pd *pend) {
				if pd.host < 0 {
					lost = append(lost, pd.vm.Name)
				} else {
					rehomed = append(rehomed, Rehome{Name: pd.vm.Name, Host: pd.host, Seq: pd.seq})
				}
			}
			for _, pd := range ev.ls {
				evacLS = append(evacLS, pd.vm.Name)
				resolve(pd)
			}
			for _, pd := range ev.be {
				evacBE = append(evacBE, pd.vm.Name)
				resolve(pd)
			}
			bs.Lost += int64(len(lost))
			ev.host.finishEvacuate(ev.seq, evacLS, evacBE, lost, rehomed)
		}
	}
	a.mu.Lock()
	a.stats.add(bs)
	a.mu.Unlock()
	return bs, nil
}

// promoteSpare moves the lowest-id healthy spare into the regular
// pool, replacing a dead regular host.
func (a *Arbiter) promoteSpare() {
	for _, h := range a.hosts {
		if h.Spare() && h.State() == HostUp {
			h.promote()
			return
		}
	}
}

// Place runs one VM through the live optimistic protocol: pick from the
// board, commit against the version the pick read, and on conflict or
// reject read again and retry, up to MaxAttempts. Unlike PlaceBatch
// this races genuinely against other goroutines — it is the arbiter's
// concurrent API (and what the -race stress tests hammer). A pick takes
// no lock and allocates nothing; the registry lock is taken twice, to
// claim the name and to record the outcome with its counters. Returns
// the placed host.
func (a *Arbiter) Place(vm VM) (int, error) {
	if a.closed.Load() {
		return -1, ErrClosed
	}
	batch := []VM{vm}
	if err := a.claim(batch); err != nil {
		return -1, err
	}
	pd := pend{vm: vm, host: -1}
	p := partition(vm.Name, a.cfg.Placers)
	live := headroom{cells: a.board}
	var bs Stats
	var shed []string
	var fail error
	for pd.attempts < a.cfg.MaxAttempts {
		h, view := pick(&live, &pd, p, a.cfg.Placers)
		if h < 0 {
			break
		}
		res, err := a.hosts[h].CommitPlacements(view.version, batch)
		if errors.Is(err, ErrConflict) || errors.Is(err, ErrHostDown) {
			bs.Conflicts++
			if errors.Is(err, ErrHostDown) {
				pd.ban(h)
			}
		} else if err != nil {
			fail = err
			break
		} else if len(res.Placed) == 1 {
			bs.Placed++
			if view.spare() {
				bs.SparePlacements++
			}
			pd.host, shed = h, res.Shed
			break
		} else {
			if res.Rejects[0].NoSlot {
				bs.SlotRejects++
			} else {
				bs.AdmissionRejects++
			}
			pd.ban(h)
		}
		pd.attempts++
		if pd.attempts < a.cfg.MaxAttempts {
			bs.Retries++
		}
	}

	a.mu.Lock()
	delete(a.placing, vm.Name)
	switch {
	case pd.host >= 0:
		a.recordPlacedLocked(vm.Name, pd.host)
		for _, name := range shed {
			a.removePlacedLocked(name)
			bs.Shed++
		}
	case fail == nil:
		bs.Unplaced++
		fail = ErrUnplaced
	}
	a.stats.add(bs)
	a.mu.Unlock()
	return pd.host, fail
}

// Depart tears one VM down through the live protocol, retrying commits
// that lose to concurrent placements on the same host. A departure
// whose owning host is down is deferred (counted, ErrHostDown): the VM
// stays registered until Failover resolves the host. A VM its Up host
// no longer holds is already gone — a concurrent placement shed it, or
// a recovery resolved its departure from the journal — and whoever let
// it go is about to drop it from the registry; Depart reports it
// unknown.
func (a *Arbiter) Depart(name string) error {
	if a.closed.Load() {
		return ErrClosed
	}
	a.mu.Lock()
	h, ok := a.vmHost[name]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: departure of unknown VM %q", name)
	}
	for attempt := 0; ; attempt++ {
		snap := a.hosts[h].Snapshot()
		if snap.State != HostUp {
			a.mu.Lock()
			a.stats.DepartsDeferred++
			a.mu.Unlock()
			return ErrHostDown
		}
		_, err := a.hosts[h].CommitDepartures(snap.Version, []string{name})
		if errors.Is(err, ErrConflict) {
			if attempt >= 64 {
				return fmt.Errorf("fleet: departure of %q starved by conflicts", name)
			}
			a.mu.Lock()
			a.stats.Conflicts++
			a.stats.Retries++
			a.mu.Unlock()
			continue
		}
		if errors.Is(err, ErrHostDown) {
			a.mu.Lock()
			a.stats.DepartsDeferred++
			a.mu.Unlock()
			return ErrHostDown
		}
		if errors.Is(err, errNotHeld) {
			return fmt.Errorf("fleet: departure of unknown VM %q: host %d has let it go", name, h)
		}
		if err != nil {
			return err
		}
		break
	}
	a.mu.Lock()
	a.removePlacedLocked(name)
	a.stats.Departed++
	a.mu.Unlock()
	return nil
}

// recordPlacedLocked registers a VM a commit placed — unless the host has
// let it go since the commit: a concurrent placement shed it, or the host
// died and its evacuation, which re-places and registers the VM or
// records it lost, answers for it now. Whichever comes first, the
// recording or that transition's own registry update, the registry ends
// where the ledgers do.
func (a *Arbiter) recordPlacedLocked(name string, host int) {
	if !a.hosts[host].holds(name) {
		return
	}
	a.vmHost[name] = host
	a.orderPos[name] = len(a.order)
	a.order = append(a.order, name)
}

func (a *Arbiter) removePlacedLocked(name string) {
	delete(a.vmHost, name)
	pos, ok := a.orderPos[name]
	if !ok {
		return
	}
	last := len(a.order) - 1
	moved := a.order[last]
	a.order[pos] = moved
	a.orderPos[moved] = pos
	a.order = a.order[:last]
	delete(a.orderPos, name)
}
