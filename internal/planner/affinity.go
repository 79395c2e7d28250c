package planner

import (
	"fmt"
	"math/big"
	"sort"
)

// Affinity support implements the placement hook the paper calls out in
// Sec. 5: "Partitioning also has the advantage that additional
// considerations such as memory locality on NUMA platforms, special
// treatment of hardware threads, or cache interference concerns can be
// easily incorporated." A vCPU with an affinity set is only partitioned
// onto (or split across) the listed cores; vCPUs without affinity may
// go anywhere.

// allowedOn reports whether the task's vCPU may be placed on core id.
// allow == nil means unrestricted.
func allowedOn(allow map[int][]int, group, core int) bool {
	cores, ok := allow[group]
	if !ok || len(cores) == 0 {
		return true
	}
	for _, c := range cores {
		if c == core {
			return true
		}
	}
	return false
}

// Headroom reports how many additional vCPUs of the given shape could
// be admitted and planned on top of the existing population — the
// consolidation question of the paper's introduction ("the ability to
// pack VMs as tightly as possible without violating customer
// expectations is a distinct economic advantage"). It binary-searches
// the largest n for which planning the combined population succeeds,
// probing up to limit extra vCPUs (limit <= 0 selects 4x the core
// count).
//
// Planning the full population for each probe keeps the answer honest:
// a shape that passes the utilization bound can still be unplaceable,
// and one that defeats partitioning may still split or cluster.
func Headroom(existing []VCPUSpec, shape VCPUSpec, opts Options, limit int) (int, error) {
	if err := shape.Validate(); err != nil {
		return 0, err
	}
	if limit <= 0 {
		limit = 4 * opts.Cores
	}
	fits := func(n int) bool {
		specs := append([]VCPUSpec(nil), existing...)
		for i := 0; i < n; i++ {
			s := shape
			s.Name = fmt.Sprintf("%s+%d", shape.Name, i)
			specs = append(specs, s)
		}
		if Admit(specs, opts.Cores) != nil {
			return false
		}
		_, err := Plan(specs, opts)
		return err == nil
	}
	// The predicate is monotone in n for all practical purposes (more
	// identical VMs never make planning easier), so binary search.
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// affineUtilBound verifies a necessary admission condition for affinity
// sets: for every distinct affinity core set, the total utilization of
// vCPUs restricted to it must not exceed its size. (Sufficient checks
// happen during planning; this catches obvious misconfigurations with a
// clear error.)
func affineUtilBound(specs []VCPUSpec, affinities map[string][]int) error {
	type key string
	groups := make(map[key]*big.Rat)
	sizes := make(map[key]int)
	for _, s := range specs {
		cores, ok := affinities[s.Name]
		if !ok || len(cores) == 0 {
			continue
		}
		sorted := append([]int(nil), cores...)
		sort.Ints(sorted)
		k := key(fmt.Sprint(sorted))
		if groups[k] == nil {
			groups[k] = new(big.Rat)
			sizes[k] = len(sorted)
		}
		groups[k].Add(groups[k], big.NewRat(s.Util.Num, s.Util.Den))
	}
	for k, total := range groups {
		if total.Cmp(new(big.Rat).SetInt64(int64(sizes[k]))) > 0 {
			f, _ := total.Float64()
			return fmt.Errorf("planner: affinity set %s over-utilized: %.3f on %d cores", k, f, sizes[k])
		}
	}
	return nil
}
