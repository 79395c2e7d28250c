package planner

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"tableau/internal/table"
)

// The digest wall pins the planner's output, byte for byte, over a
// seeded spread of inputs: testdata/plan_digests.txt holds one SHA-256
// per case, over the table's compact wire encoding and every field of the
// Result a consumer can read. A change that claims "same tables" must
// pass it unchanged; -update regenerates the file and is for changes
// that mean to alter a decision.
var updateDigests = flag.Bool("update", false, "regenerate testdata/plan_digests.txt")

const digestFile = "testdata/plan_digests.txt"

// The fleet benchmark's VM mix: four reservation sizes, three latency
// goals, a quarter best-effort.
var (
	fleetMixUtils = []Util{{1, 16}, {1, 8}, {1, 4}, {1, 2}}
	fleetMixGoals = []int64{5_000_000, 10_000_000, 20_000_000}
)

var residentSpec = VCPUSpec{Name: "sys", Util: Util{1, 64}, LatencyGoal: 100_000_000, Capped: true}

// fleetHostSpecs draws one fleet host's population as core.System hands
// it to the planner: the resident in front, then n-1 guests from the
// mix in ascending slot order, named after their slots.
func fleetHostSpecs(rng *rand.Rand, n int) []VCPUSpec {
	specs := []VCPUSpec{residentSpec}
	slots := rng.Perm(19)[:n-1]
	sort.Ints(slots)
	for _, s := range slots {
		specs = append(specs, fleetGuest(rng, fmt.Sprintf("s%d", s+1)))
	}
	return specs
}

// slotIDs numbers a fleet host's specs by slot, as core.System does: the
// resident holds slot 0 and guest "s<n>" slot n.
func slotIDs(specs []VCPUSpec) []VCPUSpec {
	for i := range specs {
		specs[i].ID = 0
		if specs[i].Name != residentSpec.Name {
			fmt.Sscanf(specs[i].Name, "s%d", &specs[i].ID)
		}
	}
	return specs
}

func fleetGuest(rng *rand.Rand, name string) VCPUSpec {
	sp := VCPUSpec{
		Name:        name,
		Util:        fleetMixUtils[rng.Intn(len(fleetMixUtils))],
		LatencyGoal: fleetMixGoals[rng.Intn(len(fleetMixGoals))],
		Capped:      true,
	}
	if rng.Intn(4) == 0 {
		sp.Class = BE
	}
	return sp
}

// denseSpec is slot's VM on the 16-core × 192 × 1/16 host, numbered by
// its slot as core.System numbers it.
func denseSpec(slot int) VCPUSpec {
	return VCPUSpec{
		ID: slot, Name: fmt.Sprintf("vm%d", slot), Util: Util{1, 16},
		LatencyGoal: fleetMixGoals[slot%len(fleetMixGoals)], Capped: true,
	}
}

func denseSpecs(on []bool) []VCPUSpec {
	var specs []VCPUSpec
	for slot, resident := range on {
		if resident {
			specs = append(specs, denseSpec(slot))
		}
	}
	return specs
}

// tightSpecs draws a population partitioning cannot place: either
// cores+1 VMs of cores/(cores+1) each (exactly full), or large
// reservations drawn until the host is at least 85% reserved (or the
// draws run out).
func tightSpecs(rng *rand.Rand, cores int) []VCPUSpec {
	goals := []int64{5_000_000, 10_000_000, 20_000_000, 50_000_000}
	var specs []VCPUSpec
	if rng.Intn(3) == 0 {
		for i := 0; i <= cores; i++ {
			specs = append(specs, VCPUSpec{
				Name: fmt.Sprintf("t%d", i), Util: Util{int64(cores), int64(cores + 1)},
				LatencyGoal: goals[rng.Intn(len(goals))], Capped: rng.Intn(2) == 0,
			})
		}
		return specs
	}
	utils := []Util{{1, 2}, {3, 5}, {2, 3}, {7, 10}, {3, 4}, {2, 5}, {1, 3}}
	total := 0.0
	for i := 0; i < 64 && total < 0.85*float64(cores); i++ {
		u := utils[rng.Intn(len(utils))]
		if total+u.Float() > float64(cores) {
			continue
		}
		total += u.Float()
		specs = append(specs, VCPUSpec{
			Name: fmt.Sprintf("t%d", i), Util: u,
			LatencyGoal: goals[rng.Intn(len(goals))], Capped: rng.Intn(2) == 0,
		})
	}
	return specs
}

// positionalResult renames a Result planned from specs into the
// positional numbering (vCPU id = spec index) the digests were taken in:
// the table's allocations and VCPUs entries, and the guarantees. Tasks,
// CoreTasks and Splits are indexed by spec already. Specs numbered by
// position come back as they are.
func positionalResult(specs []VCPUSpec, res *Result) *Result {
	if res == nil || positional(specs) {
		return res
	}
	pos := make(map[int]int, len(specs))
	for i, sp := range specs {
		pos[sp.ID] = i
	}
	out := *res
	tbl := *res.Table
	tbl.VCPUs = make([]table.VCPUInfo, len(specs))
	for i, sp := range specs {
		tbl.VCPUs[i] = res.Table.VCPUs[sp.ID]
	}
	tbl.Cores = make([]table.CoreTable, len(res.Table.Cores))
	for c, ct := range res.Table.Cores {
		tbl.Cores[c] = table.CoreTable{Core: ct.Core}
		for _, a := range ct.Allocs {
			if a.VCPU != table.Idle {
				a.VCPU = pos[a.VCPU]
			}
			tbl.Cores[c].Allocs = append(tbl.Cores[c].Allocs, a)
		}
	}
	out.Table = &tbl
	out.Guarantees = slices.Clone(res.Guarantees)
	for i := range out.Guarantees {
		out.Guarantees[i].VCPU = pos[out.Guarantees[i].VCPU]
	}
	return &out
}

// sparseIDs renumbers specs to ID 3k+1, k their ID or, numbered by
// position, their index: a gap after every vCPU, and none at 0.
func sparseIDs(specs []VCPUSpec) []VCPUSpec {
	pos := positional(specs)
	out := slices.Clone(specs)
	for i := range out {
		out[i].ID = 3*specs[i].id(i, pos) + 1
	}
	return out
}

// digestOf hashes everything a consumer can read off a planning
// outcome. A failed plan digests its error text: which populations the
// planner refuses, and why, is pinned too.
func digestOf(res *Result, err error) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error: %v", err)
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	enc, eerr := res.Table.AppendEncodedCompact(nil)
	if eerr != nil {
		fmt.Fprintf(h, "encode error: %v", eerr)
	}
	h.Write(enc)
	fmt.Fprintf(h, "|g%v|st%d|sp%v|cc%v|pre%d|cs%d|saved%d|inc%v|pin%d|hits%d|tasks%v|coretasks%v",
		res.Guarantees, res.Stage, res.Splits, res.ClusterCores,
		res.Preemptions, res.ContextSwitches, res.SwitchesSaved,
		res.Incremental, res.PinnedCores, res.SliceHits, res.Tasks, res.CoreTasks)
	return fmt.Sprintf("%x", h.Sum(nil))
}

type digestCase struct {
	name   string
	digest string
	stage  Stage
	failed bool
	inc    bool
}

// digestCases digests every pinned input, in a fixed order.
func digestCases(viaArena, sparse bool) []digestCase {
	var out []digestCase
	eachDigestCase(viaArena, sparse, func(name string, res *Result, err error) {
		c := digestCase{name: name, digest: digestOf(res, err), failed: err != nil}
		if err == nil {
			c.stage, c.inc = res.Stage, res.Incremental
		}
		out = append(out, c)
	})
	return out
}

// eachDigestCase plans every pinned input, in a fixed order, and hands
// each outcome to add, renamed into positional numbering. viaArena plans
// each incremental chain in an Arena of its own, as core.System does;
// sparse plans every input renumbered by sparseIDs.
func eachDigestCase(viaArena, sparse bool, add func(name string, res *Result, err error)) {
	number := func(specs []VCPUSpec) []VCPUSpec {
		if sparse {
			return sparseIDs(specs)
		}
		return specs
	}
	plan := func(name string, specs []VCPUSpec, opts Options) {
		specs = number(specs)
		res, err := Plan(specs, opts)
		add(name, positionalResult(specs, res), err)
	}

	// 8-core fleet hosts of 2-15 VMs: the population a Place plans.
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		plan(fmt.Sprintf("fleet8/%d", seed), fleetHostSpecs(rng, 2+seed%14), Options{Cores: 8})
	}
	// The dense host at 96-192 resident, scratch.
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + int64(seed)))
		on := make([]bool, 192)
		for _, slot := range rng.Perm(192)[:96+rng.Intn(97)] {
			on[slot] = true
		}
		plan(fmt.Sprintf("dense16/%d", seed), denseSpecs(on), Options{Cores: 16})
	}
	// Populations that defeat partitioning: C=D splits and (splitting
	// disabled) the cluster stage.
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(2000 + int64(seed)))
		cores := 2 + seed%3
		specs := tightSpecs(rng, cores)
		plan(fmt.Sprintf("split/%d", seed), specs, Options{Cores: cores})
		if seed < 20 {
			plan(fmt.Sprintf("cluster/%d", seed), specs, Options{Cores: cores, DisableSplitting: true})
		}
	}
	// Dedicated cores for U = 1 vCPUs among a fleet mix.
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(3000 + int64(seed)))
		specs := fleetHostSpecs(rng, 3+seed%8)
		for k := 0; k <= seed%3; k++ {
			full := VCPUSpec{Name: fmt.Sprintf("full%d", k), Util: Util{1, 1}, LatencyGoal: 20_000_000}
			at := rng.Intn(len(specs) + 1)
			specs = append(specs[:at], append([]VCPUSpec{full}, specs[at:]...)...)
		}
		plan(fmt.Sprintf("dedicated/%d", seed), specs, Options{Cores: 4 + seed%5})
	}
	// The peephole pass, on two crowded cores so it has patterns to find.
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(5000 + int64(seed)))
		var specs []VCPUSpec
		for i := 0; i < 6+seed%5; i++ {
			sp := fleetGuest(rng, fmt.Sprintf("p%d", i))
			sp.Util = []Util{{1, 16}, {1, 8}, {3, 16}}[rng.Intn(3)]
			sp.Capped = rng.Intn(2) == 0
			specs = append(specs, sp)
		}
		plan(fmt.Sprintf("peephole/%d", seed), specs, Options{Cores: 2, Peephole: true})
	}
	// Fixed-length tables, as the Fig. 3/4 experiments ask for.
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(6000 + int64(seed)))
		plan(fmt.Sprintf("tablelen/%d", seed), fleetHostSpecs(rng, 2+seed%7), Options{Cores: 8, TableLength: MaxHyperperiod})
	}

	// 50-step incremental chains: each step perturbs the population and
	// replans on top of the previous result, as core.System does.
	chain := func(name string, seed int64, opts Options, specs []VCPUSpec, step func(rng *rand.Rand, specs []VCPUSpec) []VCPUSpec) {
		rng := rand.New(rand.NewSource(seed))
		planInc := PlanIncremental
		if viaArena {
			planInc = new(Arena).PlanIncremental
		}
		planned := number(specs)
		res, err := planInc(planned, opts, nil)
		add(name+"/0", positionalResult(planned, res), err)
		var prev *PrevPlan
		if err == nil {
			prev = &PrevPlan{Specs: planned, Opts: opts, Res: res}
		}
		for i := 1; i <= 50; i++ {
			specs = step(rng, specs)
			planned := number(specs)
			res, err := planInc(planned, opts, prev)
			add(fmt.Sprintf("%s/%d", name, i), positionalResult(planned, res), err)
			if err == nil {
				prev = &PrevPlan{Specs: planned, Opts: opts, Res: res}
			}
		}
	}
	// A fleet host under place/depart/reconfigure churn.
	fleetStep := func(rng *rand.Rand, specs []VCPUSpec) []VCPUSpec {
		next := append([]VCPUSpec(nil), specs...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(next) < 16:
				used := make(map[string]bool)
				for _, sp := range next {
					used[sp.Name] = true
				}
				slot := 1 + rng.Intn(19)
				for used[fmt.Sprintf("s%d", slot)] {
					slot = 1 + slot%19
				}
				guest := fleetGuest(rng, fmt.Sprintf("s%d", slot))
				guest.ID = slot
				next = append(next, guest)
			case op == 1 && len(next) > 2:
				at := 1 + rng.Intn(len(next)-1)
				next = append(next[:at], next[at+1:]...)
			case len(next) > 1:
				at := 1 + rng.Intn(len(next)-1)
				id := next[at].ID
				next[at] = fleetGuest(rng, next[at].Name)
				next[at].ID = id
			}
		}
		// core.System plans in slot order.
		sort.SliceStable(next[1:], func(i, j int) bool {
			var a, b int
			fmt.Sscanf(next[1+i].Name, "s%d", &a)
			fmt.Sscanf(next[1+j].Name, "s%d", &b)
			return a < b
		})
		return next
	}
	fleetStart := slotIDs(fleetHostSpecs(rand.New(rand.NewSource(7000)), 8))
	chain("chain-fleet8", 7100, Options{Cores: 8}, fleetStart, fleetStep)
	chain("chain-fleet8-memo", 7100, Options{Cores: 8, Slices: NewSliceCache(0)}, fleetStart, fleetStep)
	// The dense host's walk: three slots change state per step, inside
	// the 168-192 band the benchmark keeps it in.
	denseStep := func(rng *rand.Rand, specs []VCPUSpec) []VCPUSpec {
		on := make([]bool, 192)
		resident := 0
		for _, sp := range specs {
			var slot int
			fmt.Sscanf(sp.Name, "vm%d", &slot)
			on[slot] = true
			resident++
		}
		for k := 0; k < 3; k++ {
			slot := rng.Intn(192)
			switch {
			case on[slot] && resident > 168:
				on[slot] = false
				resident--
			case !on[slot]:
				on[slot] = true
				resident++
			}
		}
		return denseSpecs(on)
	}
	denseStart := make([]bool, 192)
	for _, slot := range rand.New(rand.NewSource(7001)).Perm(192)[:180] {
		denseStart[slot] = true
	}
	chain("chain-dense16", 7200, Options{Cores: 16}, denseSpecs(denseStart), denseStep)
	chain("chain-dense16-memo", 7200, Options{Cores: 16, Slices: NewSliceCache(0)}, denseSpecs(denseStart), denseStep)
	// A nearly full 4-core host whose churn keeps re-splitting.
	tightStep := func(rng *rand.Rand, specs []VCPUSpec) []VCPUSpec {
		next := append([]VCPUSpec(nil), specs...)
		at := rng.Intn(len(next))
		if rng.Intn(2) == 0 {
			next[at].LatencyGoal = []int64{5_000_000, 10_000_000, 20_000_000, 50_000_000}[rng.Intn(4)]
		} else {
			next[at].Util = []Util{{3, 4}, {4, 5}, {7, 10}, {3, 5}}[rng.Intn(4)]
		}
		return next
	}
	var tightStart []VCPUSpec
	for i := 0; i < 5; i++ {
		tightStart = append(tightStart, VCPUSpec{Name: fmt.Sprintf("t%d", i), Util: Util{4, 5}, LatencyGoal: 20_000_000})
	}
	chain("chain-tight4-memo", 7300, Options{Cores: 4, Slices: NewSliceCache(0)}, tightStart, tightStep)
}

func TestPlanDigests(t *testing.T) {
	cases := digestCases(false, false)

	// The coverage the file claims, checked on what the cases produced.
	var split, clustered, failed, incremental int
	for _, c := range cases {
		switch {
		case c.failed:
			failed++
		case c.stage == StageSemiPartitioned:
			split++
		case c.stage == StageClustered:
			clustered++
		}
		if c.inc {
			incremental++
		}
	}
	if len(cases) < 400 || split < 20 || clustered < 5 || incremental < 100 {
		t.Fatalf("digest cases lost coverage: %d cases, %d split, %d clustered, %d incremental, %d failed",
			len(cases), split, clustered, incremental, failed)
	}

	if *updateDigests {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, c.digest)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests (%d split, %d clustered, %d incremental, %d failed)", len(cases), split, clustered, incremental, failed)
		return
	}

	checkDigests(t, cases)
}

// checkDigests compares the cases against the pinned file.
func checkDigests(t *testing.T, cases []digestCase) {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d digests, the test runs %d cases", digestFile, len(want), len(cases))
	}
	bad := 0
	for _, c := range cases {
		if want[c.name] != c.digest {
			if bad++; bad <= 10 {
				t.Errorf("%s: digest %s, want %s", c.name, c.digest, want[c.name])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}
