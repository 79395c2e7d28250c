package verify

import (
	"errors"
	"fmt"
	"math/rand"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// ClassMetamorphic tags planner metamorphic findings.
const ClassMetamorphic = "metamorphic"

// specsOf converts a generated scenario to planner specs.
func specsOf(sc *Scenario) []planner.VCPUSpec {
	specs := make([]planner.VCPUSpec, len(sc.VMs))
	for i, vm := range sc.VMs {
		specs[i] = planner.VCPUSpec{
			Name: vm.Name, Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: vm.Capped,
		}
	}
	return specs
}

// verdict classifies a planning outcome for metamorphic comparison.
func verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	default:
		var over *planner.ErrOverUtilized
		if errors.As(err, &over) {
			return "overutilized"
		}
		return "error"
	}
}

// CheckMetamorphicPermute verifies that planning is invariant under
// spec order: permuting the VM list must not change the admission
// verdict, and each vCPU (matched by name) must keep the same
// guarantee — same reserved service, same window, same blackout
// bound. The raw table layout is deliberately NOT compared: worst-fit
// ties are order-sensitive by design; the contract is the guarantee,
// not the placement.
func CheckMetamorphicPermute(sc *Scenario, permSeed int64) []Violation {
	specs := specsOf(sc)
	perm := make([]planner.VCPUSpec, len(specs))
	copy(perm, specs)
	rng := rand.New(rand.NewSource(permSeed))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	opts := planner.Options{Cores: sc.Cores}
	r1, err1 := planner.Plan(specs, opts)
	r2, err2 := planner.Plan(perm, opts)

	var out []Violation
	if verdict(err1) != verdict(err2) {
		out = append(out, Violation{ClassMetamorphic, -1, fmt.Sprintf(
			"permutation changed verdict: %q (err %v) vs %q (err %v)",
			verdict(err1), err1, verdict(err2), err2)})
		return out
	}
	if err1 != nil {
		return out
	}
	g1 := guaranteesByName(specs, r1.Guarantees)
	g2 := guaranteesByName(perm, r2.Guarantees)
	for name, a := range g1 {
		b, ok := g2[name]
		if !ok {
			out = append(out, Violation{ClassMetamorphic, -1, fmt.Sprintf(
				"%s: guarantee missing after permutation", name)})
			continue
		}
		if a.Service != b.Service || a.WindowLen != b.WindowLen || a.MaxBlackout != b.MaxBlackout {
			out = append(out, Violation{ClassMetamorphic, -1, fmt.Sprintf(
				"%s: guarantee changed under permutation: (%d/%d ns, blackout %d) vs (%d/%d ns, blackout %d)",
				name, a.Service, a.WindowLen, a.MaxBlackout, b.Service, b.WindowLen, b.MaxBlackout)})
		}
	}
	return out
}

// CheckMetamorphicScale verifies the planner under a uniform latency-
// goal scale-up by integer k: the admission verdict must not change
// (admission depends only on utilizations), chosen periods must not
// shrink (a looser deadline can only admit longer periods), and
// normalized allocations must stay exactly the reserved utilization —
// Service = U * WindowLen with no rounding slack, which the
// generator's utilization menu makes exactly representable.
func CheckMetamorphicScale(sc *Scenario, k int64) []Violation {
	if k < 1 {
		k = 2
	}
	specs := specsOf(sc)
	scaled := make([]planner.VCPUSpec, len(specs))
	copy(scaled, specs)
	for i := range scaled {
		scaled[i].LatencyGoal *= k
	}

	opts := planner.Options{Cores: sc.Cores}
	r1, err1 := planner.Plan(specs, opts)
	r2, err2 := planner.Plan(scaled, opts)

	var out []Violation
	if verdict(err1) != verdict(err2) {
		out = append(out, Violation{ClassMetamorphic, -1, fmt.Sprintf(
			"goal scale x%d changed verdict: %q (err %v) vs %q (err %v)",
			k, verdict(err1), err1, verdict(err2), err2)})
		return out
	}
	if err1 != nil {
		return out
	}
	g1 := guaranteesByName(specs, r1.Guarantees)
	g2 := guaranteesByName(scaled, r2.Guarantees)
	for i, s := range specs {
		name := s.Name
		a, b := g1[name], g2[name]
		if b.WindowLen < a.WindowLen {
			out = append(out, Violation{ClassMetamorphic, i, fmt.Sprintf(
				"%s: period shrank from %d to %d ns under goal scale x%d",
				name, a.WindowLen, b.WindowLen, k)})
		}
		for _, g := range []table.Guarantee{a, b} {
			if g.Service*s.Util.Den != g.WindowLen*s.Util.Num {
				out = append(out, Violation{ClassMetamorphic, i, fmt.Sprintf(
					"%s: normalized allocation %d/%d ns is not exactly U=%d/%d",
					name, g.Service, g.WindowLen, s.Util.Num, s.Util.Den)})
			}
		}
	}
	return out
}

// guaranteesByName keys guarantees by spec name (Guarantee.VCPU
// indexes the spec slice the plan was made from).
func guaranteesByName(specs []planner.VCPUSpec, gs []table.Guarantee) map[string]table.Guarantee {
	out := make(map[string]table.Guarantee, len(gs))
	for _, g := range gs {
		if g.VCPU >= 0 && g.VCPU < len(specs) {
			out[specs[g.VCPU].Name] = g
		}
	}
	return out
}
