package planner

import (
	"fmt"
	"math/big"
)

// Class is a vCPU's tenancy class, in the Akita style: latency-
// sensitive (LS) guests hold hard guarantees that survive overload,
// best-effort (BE) guests soak slack and are the first to shed. The
// zero value is LS, so populations that never mention classes behave
// exactly as before the class existed.
type Class uint8

const (
	// LS marks a latency-sensitive guest: its admitted guarantee is
	// never displaced by another admission.
	LS Class = iota
	// BE marks a best-effort guest: admitted into remaining headroom,
	// deprioritized in the second-level scheduler, shed first under
	// overload (as a committed, journaled deactivation).
	BE
)

func (c Class) String() string {
	if c == BE {
		return "BE"
	}
	return "LS"
}

// A VCPUSpec is the planner's per-vCPU input: the reserved utilization U
// and the maximum acceptable scheduling latency L (paper Sec. 5). These
// may come from an explicit SLA, from price-differentiated service tiers,
// or from a fair-share default; the planner does not care.
type VCPUSpec struct {
	// Name identifies the vCPU, e.g. "vm3.0".
	Name string
	// Util is the reserved utilization in (0, 1].
	Util Util
	// LatencyGoal is the maximum scheduling latency L in ns.
	LatencyGoal int64
	// Capped vCPUs may only use their reservation; uncapped vCPUs also
	// participate in the second-level scheduler.
	Capped bool
	// Class is the tenancy class (LS or BE). The table math is
	// class-blind — a BE reservation is planned exactly like an LS one —
	// but admission under overload, the second-level pick order, and the
	// controller's shed policy read it.
	Class Class
}

// Validate checks a single vCPU spec.
func (s VCPUSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("planner: vCPU with empty name")
	}
	if err := s.Util.Validate(); err != nil {
		return fmt.Errorf("planner: vCPU %q: %w", s.Name, err)
	}
	if s.LatencyGoal <= 0 {
		return fmt.Errorf("planner: vCPU %q: non-positive latency goal %d", s.Name, s.LatencyGoal)
	}
	return nil
}

// Options configures a planning run. The zero value selects the defaults
// documented on each field; Cores must always be set.
type Options struct {
	// Cores is the number of physical cores available to guest vCPUs.
	Cores int

	// CoalesceThreshold merges reservations shorter than this many ns
	// into a neighbor during post-processing; such slivers cannot be
	// enforced because context-switch overheads dominate. Default 10 µs.
	CoalesceThreshold int64

	// MaxSlicesPerCore bounds the slice-table size per core.
	// Default 4 Mi entries.
	MaxSlicesPerCore int

	// TableLength, when non-zero, forces the generated table to cover
	// this length (it must be a multiple of every chosen period; the
	// divisor-based period candidates make MaxHyperperiod always
	// valid). Zero picks the hyperperiod of the chosen periods — the
	// shortest valid table. The Fig. 3/4 experiments set this to
	// MaxHyperperiod to mirror the paper's fixed-length tables.
	TableLength int64

	// DisableSplitting turns off the C=D semi-partitioning stage
	// (used by the ablation experiment).
	DisableSplitting bool

	// DisableClustering turns off the optimal cluster-scheduling stage
	// (used by the ablation experiment).
	DisableClustering bool

	// Peephole enables the guarantee-preserving context-switch
	// reduction pass (the paper's Sec. 5 "peep-hole optimization"
	// extension). Off by default: it lengthens planning and the paper's
	// core evaluation does not use it.
	Peephole bool

	// SplitCompensationPPM inflates the utilization of a vCPU that ends
	// up C=D-split by this many parts-per-million before splitting, the
	// paper's Sec. 7.5 suggestion for compensating split vCPUs for
	// their extra migration overhead. For example, 30_000 grants a
	// split vCPU an extra 3% of a core.
	SplitCompensationPPM int64

	// Affinity restricts named vCPUs to subsets of cores (the paper's
	// Sec. 5 NUMA/cache placement hook): map from vCPU name to allowed
	// core ids. vCPUs absent from the map are unrestricted. Affine
	// vCPUs are honored by partitioning and C=D splitting; a workload
	// whose affine vCPUs cannot be placed without the cluster stage is
	// rejected with a descriptive error.
	Affinity map[string][]int

	// SplitRotation rotates placement tie-breaking among equal-
	// utilization vCPUs, implementing the paper's other Sec. 7.5
	// suggestion: regenerate the table periodically with an advancing
	// rotation so the migration penalty of being split is taken in
	// turns rather than borne by one unlucky vCPU. core.System advances
	// it on every replan when rotation is enabled.
	SplitRotation int

	// Slices, when set, memoizes per-core EDF simulations across plans
	// keyed by the core's ordered task parameters (see SliceCache). A
	// hit returns the identical simulation a fresh run would produce,
	// so tables stay byte-identical with or without the cache; excluded
	// from CacheKey.
	Slices *SliceCache

	// UnsafeStaleSliceReuse is a mutation-smoke defect switch for
	// PlanIncremental: a same-named vCPU is treated as unchanged even
	// when its reservation was reconfigured, so its stale per-core
	// placement (and the stale spec that makes the planner's own final
	// Check pass) is reused. The verify oracles must catch the epoch
	// that under-serves the reconfigured VM. Never set outside tests.
	UnsafeStaleSliceReuse bool
}

func (o Options) withDefaults() Options {
	if o.CoalesceThreshold == 0 {
		o.CoalesceThreshold = 10_000
	}
	return o
}

// ErrOverUtilized is returned when the sum of reserved utilizations
// exceeds the number of cores: a misconfiguration that Tableau rejects
// (paper Sec. 5).
type ErrOverUtilized struct {
	Total *big.Rat
	Cores int
}

func (e *ErrOverUtilized) Error() string {
	f, _ := e.Total.Float64()
	return fmt.Sprintf("planner: over-utilized: total reserved utilization %.4f exceeds %d cores", f, e.Cores)
}

// Admit validates all specs and checks the system-wide admission
// condition sum(U) <= Cores using exact arithmetic.
func Admit(specs []VCPUSpec, cores int) error {
	ws := getWorkspace(len(specs))
	defer putWorkspace(ws)
	return admit(ws, specs, cores, false)
}

// AdmitLS checks admission over the latency-sensitive subpopulation
// only: sum(U of LS specs) <= Cores. This is the gate that decides
// whether an overloaded host may save an LS admission by shedding BE
// guests — the LS guarantees alone must fit, so no LS guest is ever
// displaced to make room for another. BE specs are validated but do
// not count against capacity here.
func AdmitLS(specs []VCPUSpec, cores int) error {
	ws := getWorkspace(len(specs))
	defer putWorkspace(ws)
	return admit(ws, specs, cores, true)
}

// admit is the one admission check: every spec valid, names distinct,
// and the summed utilization — of the LS specs only when lsOnly — within
// the core count.
func admit(ws *workspace, specs []VCPUSpec, cores int, lsOnly bool) error {
	if cores <= 0 {
		return fmt.Errorf("planner: non-positive core count %d", cores)
	}
	if ws.seen == nil {
		ws.seen = make(map[string]struct{}, len(specs))
	}
	seen := ws.seen
	defer clear(seen) // the keys would pin the caller's names
	total := zeroFrac()
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		if _, dup := seen[s.Name]; dup {
			return fmt.Errorf("planner: duplicate vCPU name %q", s.Name)
		}
		seen[s.Name] = struct{}{}
		if lsOnly && s.Class != LS {
			continue
		}
		total.add(s.Util.Num, s.Util.Den)
	}
	if total.cmpInt(int64(cores)) > 0 {
		return &ErrOverUtilized{Total: total.rat(), Cores: cores}
	}
	return nil
}
