// Package fleet is the cluster layer above the single-host control
// plane: a shared-state placement arbiter that assigns incoming VMs to
// one of N simulated Tableau hosts, each running its own planner and
// core.Controller.
//
// The concurrency model is optimistic, in the style of shared-state
// cluster schedulers, and the shared state is a headroom board: one
// fixed-size cell of atomics per host — committed version (the host's
// Epoch.Version), free slots, unreserved utilization, failure state,
// pool — in one dense, pointer-free slice owned by the Arbiter.
//
// Who writes a cell, and when: only the owning Host, while it holds its
// own lock, as the last act of every method that can change one of the
// published fields — CommitPlacements in all its outcomes (placed,
// rejected, rolled back, shed, crashed to Down), CommitDepartures,
// Recover, markDead, promote, and construction. So whatever a lock
// holder could have observed, the board shows by the time the lock is
// free.
//
// Why readers need no lock: a placer scans cells in place — the home
// partition first, by stride, then at most one sweep of the whole board
// (pick) — picks a host, and commits by submitting the placement batch
// to that host's Controller and flushing it, naming the version it
// read. The host checks that version under its lock: a concurrent
// commit that raced on the same host finds the version moved, loses
// with ErrConflict, reads the board again, and retries (bounded by
// Config.MaxAttempts, with conflict counters). A cell's three words are
// not read atomically as a group, and need not be: the writer stores
// headroom before version and readers load version before headroom, so
// a reader's headroom is never older than its version — a commit that
// passes the version check was decided on current headroom — and even
// a decision from a torn or stale cell can only lose and retry, because
// headroom is advisory; the host's admission check (the planner's exact
// utilization test inside Controller.Flush) is the authoritative gate.
// A placement the board thought would fit can still be rejected at the
// host, in which case the placer bans that host for the VM, becomes
// eligible for the spare-host pool, and retries elsewhere — the
// shed-retry path of the fleet.
//
// Arrivals are hash-partitioned across P placers by VM name, and each
// placer prefers hosts of its home partition (host%P == placer), so
// same-host contention is rare but exercised: the cross-partition
// fallback and the spare pool are exactly where two placers meet on
// one host and one of them must retry. There is deliberately no
// ordered or bucketed index over the board: worst-fit needs the
// roomiest of hosts/P cells, a scan of plain words that costs about a
// microsecond at 1000 hosts — less than keeping an index current on
// every commit would.
package fleet

import (
	"errors"
	"fmt"

	"tableau/internal/core"
	"tableau/internal/planner"
)

// VM is one guest VM a placer must find a host for. Fleet VMs are
// single-vCPU and capped (reservation-bound), matching the paper's
// high-density dark-slice model: the reservation is the contract, so
// the fleet's headroom arithmetic composes across hosts.
type VM struct {
	// Name identifies the VM fleet-wide. Placement is idempotent per
	// name: a VM may be live on at most one host at a time.
	Name string
	// Util is the reserved utilization in (0, 1].
	Util planner.Util
	// LatencyGoal is the maximum scheduling latency L in ns.
	LatencyGoal int64
	// Class is the tenancy class. The zero value is latency-sensitive;
	// best-effort guests are the fleet's sheddable tier — a host may
	// deactivate them (a committed, journaled shed) to admit an LS
	// placement its headroom could not otherwise hold.
	Class planner.Class
}

// ppm returns the VM's reserved utilization in parts-per-million of
// one core — the unit of the fleet's headroom arithmetic.
func (v VM) ppm() int64 {
	if v.Util.Den <= 0 {
		return 0
	}
	return v.Util.Num * 1_000_000 / v.Util.Den
}

// HostState is a host's position in the fleet failure lifecycle:
// Up → Down → (Recovering → Up | Dead). Down means a commit hit the
// host's crashed journal; the arbiter's Failover either replays the
// surviving journal image back to Up or declares the host Dead and
// evacuates its guests.
type HostState int

const (
	HostUp HostState = iota
	HostDown
	HostRecovering
	HostDead
)

func (s HostState) String() string {
	switch s {
	case HostUp:
		return "up"
	case HostDown:
		return "down"
	case HostRecovering:
		return "recovering"
	case HostDead:
		return "dead"
	}
	return fmt.Sprintf("state-%d", int(s))
}

// Snapshot is a host's published board cell, decoded: the committed
// epoch version plus advisory headroom. A commit against the host names
// the version it read; if the host has moved on, the commit loses with
// ErrConflict.
type Snapshot struct {
	Host    int
	Version uint64
	// FreeSlots is the number of unoccupied VM slots.
	FreeSlots int
	// FreePPM is the unreserved utilization in ppm of a core, summed
	// over the host's cores. Advisory: the host's admission check is
	// the authoritative gate.
	FreePPM int64
	// State is the host's failure-lifecycle state; placers only target
	// Up hosts.
	State HostState
	// Spare marks a spare-pool host (only eligible for VMs already
	// rejected somewhere). Spares are promoted to regular when a regular
	// host dies.
	Spare bool
}

// ErrConflict reports that a commit named a stale snapshot version:
// another placer committed to the host first. The loser refreshes and
// retries.
var ErrConflict = errors.New("fleet: stale snapshot: host epoch moved")

// ErrUnplaced reports that a VM exhausted its placement attempts (or no
// host had a free slot at all).
var ErrUnplaced = errors.New("fleet: no host could place the VM")

// ErrDuplicate reports a placement of a name that is already live (or
// already being placed): a VM may be live on at most one host, so the
// arbiter refuses before touching any host.
var ErrDuplicate = errors.New("fleet: VM is already placed")

// ErrHostDown reports a commit against a host whose journal has
// crashed (either this commit hit the crash point or the host was
// already down). Placers treat it like a conflict: ban the host,
// refresh, retry elsewhere — the batch rolled back in memory, so
// nothing was placed (even if the crashing record proves durable,
// recovery deactivates the ghost before the host rejoins).
var ErrHostDown = errors.New("fleet: host is down")

// ErrClosed reports an operation on a closed arbiter.
var ErrClosed = errors.New("fleet: arbiter closed")

// Stats are the arbiter's cumulative placement counters.
type Stats struct {
	// Placed counts successful placements; Departed counts completed
	// departures.
	Placed, Departed int64
	// Conflicts counts commits lost to a stale snapshot version;
	// Retries counts VMs re-queued for another attempt (after a
	// conflict or a reject).
	Conflicts, Retries int64
	// AdmissionRejects counts placements the target host's admission
	// check refused; SlotRejects counts placements refused for slot
	// scarcity before admission ran.
	AdmissionRejects, SlotRejects int64
	// SparePlacements counts placements that landed on the reserved
	// spare-host pool; Unplaced counts VMs that exhausted MaxAttempts.
	SparePlacements, Unplaced int64
	// Shed counts best-effort VMs a host deactivated to admit a
	// latency-sensitive placement.
	Shed int64
	// HostsDown counts hosts Failover found down; Recovered counts the
	// ones it replayed back to Up from their surviving journal image.
	HostsDown, Recovered int64
	// Displaced counts guest VMs resident on a down host at failover
	// (recovered-in-place included); Evacuated counts displaced VMs
	// re-placed off a dead host; EvacSheds counts best-effort guests
	// shed elsewhere to make room for evacuees; Lost counts evacuees no
	// host could take.
	Displaced, Evacuated, EvacSheds, Lost int64
	// DepartsDeferred counts departures skipped because the owning host
	// was down — the VM stays registered until recovery or evacuation
	// resolves it.
	DepartsDeferred int64
	// Duplicates counts Place/PlaceBatch calls refused with ErrDuplicate.
	Duplicates int64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Placed += o.Placed
	s.Departed += o.Departed
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.AdmissionRejects += o.AdmissionRejects
	s.SlotRejects += o.SlotRejects
	s.SparePlacements += o.SparePlacements
	s.Unplaced += o.Unplaced
	s.Shed += o.Shed
	s.HostsDown += o.HostsDown
	s.Recovered += o.Recovered
	s.Displaced += o.Displaced
	s.Evacuated += o.Evacuated
	s.EvacSheds += o.EvacSheds
	s.Lost += o.Lost
	s.DepartsDeferred += o.DepartsDeferred
	s.Duplicates += o.Duplicates
}

// Commit is one committed host transition in the fleet's ledger: the
// epoch it installed, the fleet-level VM names it placed or departed,
// and the committed slot ops. Seq is a fleet-global sequence number
// drawn under the host lock at commit time, so sorting all hosts'
// commits by Seq yields a total order consistent with both per-host
// commit order and real-time order — the replay order of the
// cross-host continuity oracle.
//
// Failure-seam entries carry Event: "crash" freezes the surviving
// journal image at the moment the host went down, "recover" is the
// rejoin commit (its Ops deactivate adopted ghost slots and its
// Departed resolve journal-committed departures the crash swallowed),
// and "evacuate" is a dead host's displacement record. Seam entries
// participate in the same Seq total order.
type Commit struct {
	Seq      uint64
	Version  uint64 // installed epoch (0: every op was rejected)
	Placed   []string
	Departed []string
	// Shed names the best-effort VMs this commit deactivated to admit
	// an LS placement — departures the host initiated, matched by
	// Shed-marked deactivations in Ops.
	Shed []string
	Ops  []core.Op

	// Event marks a failure-seam entry: "crash", "recover" or
	// "evacuate" ("" for a normal commit).
	Event string
	// Image is the surviving journal image frozen at the crash (nil for
	// a fail-stop crash, whose disk died with the host). The oracle
	// independently replays it and demands the recovered state match
	// bit-for-bit.
	Image []byte
	// Recovered names the guests still live after a recover seam;
	// GhostSlots are journal-active slots the crash's in-memory rollback
	// never acked (deactivated by this commit's Ops); FreedSlots are
	// occupied slots the journal says were already freed (their guests
	// resolve as Departed).
	Recovered  []string
	GhostSlots []int
	FreedSlots []int
	// EvacLS and EvacBE name a dead host's displaced guests by class;
	// Lost names the evacuees no host could take (gone from the fleet,
	// truthfully accounted). The seam's Seq is drawn before any evacuee
	// re-places, so re-placements order strictly after it.
	EvacLS, EvacBE, Lost []string
}

// partition returns the placer partition a VM name hashes to: 32-bit
// FNV-1a over the name's bytes (hash/fnv's New32a, inlined so a
// placement allocates neither a hasher nor a byte slice).
func partition(name string, placers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(placers))
}
