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
	// ID is the vCPU's id in the planned table: its allocations, its
	// VCPUs entry and its guarantee carry it. IDs must be strictly
	// increasing in spec order; a spec list whose IDs are all zero is
	// numbered by position. A caller that keeps a vCPU's ID while the
	// population around it changes (core.System uses the slot id) lets
	// PlanIncremental hand an unchanged core's schedule on as it is.
	ID int
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
	if s.Name != "" && s.Util.Num > 0 && s.Util.Num <= s.Util.Den && s.LatencyGoal > 0 {
		return nil // inlined: admission validates every spec of every plan
	}
	return s.invalid()
}

func (s VCPUSpec) invalid() error {
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

// MaxVCPUID bounds a spec's ID: a plan's table holds one VCPUs entry
// per id up to the largest.
const MaxVCPUID = 0xffff

// IDOrderError is the refusal of a spec list whose IDs are not strictly
// increasing in spec order, or lie outside [0, MaxVCPUID].
type IDOrderError struct {
	Index int    // the offending spec's position
	Name  string // its name
	ID    int    // its ID
	Prev  int    // its predecessor's ID, -1 for the first spec
}

func (e *IDOrderError) Error() string {
	return fmt.Sprintf("planner: vCPU %q at position %d has id %d, not in (%d, %d]", e.Name, e.Index, e.ID, e.Prev, MaxVCPUID)
}

// positional reports whether specs are numbered by position: every ID
// is zero.
func positional(specs []VCPUSpec) bool {
	for _, s := range specs {
		if s.ID != 0 {
			return false
		}
	}
	return true
}

// id is the vCPU id of the spec at position i of a list that is, or is
// not, numbered by position.
func (s VCPUSpec) id(i int, positional bool) int {
	if positional {
		return i
	}
	return s.ID
}

// checkIDs refuses IDs that are set but not strictly increasing.
func checkIDs(specs []VCPUSpec) error {
	if positional(specs) {
		return nil
	}
	prev := -1
	for i, s := range specs {
		if s.ID <= prev || s.ID > MaxVCPUID {
			return &IDOrderError{Index: i, Name: s.Name, ID: s.ID, Prev: prev}
		}
		prev = s.ID
	}
	return nil
}

// Options configures a planning run. Cores must always be set; every
// other field's zero value plans as the paper's planner does.
type Options struct {
	// Cores is the number of physical cores available to guest vCPUs.
	Cores int

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

	// Slices, when set, memoizes per-core EDF simulations across plans
	// keyed by the core's ordered task parameters (see SliceCache). A
	// hit returns the identical simulation a fresh run would produce,
	// so tables stay byte-identical with or without the cache; excluded
	// from CacheKey.
	Slices *SliceCache
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
	return admit(ws, specs, cores)
}

// admit is the one admission check of a whole population: every spec
// valid, names distinct, IDs increasing, and the summed utilization
// within the core count.
func admit(ws *workspace, specs []VCPUSpec, cores int) error {
	if err := checkIDs(specs); err != nil {
		return err
	}
	if ws.seen == nil {
		ws.seen = make(map[string]struct{}, len(specs))
	}
	seen := ws.seen
	defer clear(seen) // the keys would pin the caller's names
	var total UtilTotal
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		n := len(seen)
		if seen[s.Name] = struct{}{}; len(seen) == n {
			return &DuplicateNameError{Name: s.Name}
		}
		total.Add(s.Util)
	}
	return total.Check(cores)
}

// DuplicateNameError is admission's refusal of a population in which
// two vCPUs share a name.
type DuplicateNameError struct {
	Name string
}

func (e *DuplicateNameError) Error() string {
	return fmt.Sprintf("planner: duplicate vCPU name %q", e.Name)
}

// UtilTotal is admission's exact sum of valid utilizations, for a caller
// whose specs are known valid and distinct. The zero value is 0.
type UtilTotal struct {
	sum frac
}

// Add adds a valid utilization to the sum.
func (t *UtilTotal) Add(u Util) {
	if t.sum.den == 0 {
		t.sum = zeroFrac()
	}
	t.sum.add(u.Num, u.Den)
}

// Check refuses a non-positive core count, and a sum past cores with an
// *ErrOverUtilized.
func (t *UtilTotal) Check(cores int) error {
	if cores <= 0 {
		return fmt.Errorf("planner: non-positive core count %d", cores)
	}
	if t.sum.den != 0 && t.sum.cmpInt(int64(cores)) > 0 {
		return &ErrOverUtilized{Total: t.sum.rat(), Cores: cores}
	}
	return nil
}
