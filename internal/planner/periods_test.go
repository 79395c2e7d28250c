package planner

import (
	"testing"
	"testing/quick"
)

func TestCandidatePeriods(t *testing.T) {
	cands := CandidatePeriods()
	// The paper (Sec. 5) chose 102,702,600 ns because it has 186 integer
	// divisors above the 100 µs enforceability threshold.
	if len(cands) != 186 {
		t.Errorf("len(CandidatePeriods()) = %d, want 186", len(cands))
	}
	for i, c := range cands {
		if MaxHyperperiod%c != 0 {
			t.Errorf("candidate %d does not divide the hyperperiod", c)
		}
		if c < MinPeriod {
			t.Errorf("candidate %d below MinPeriod", c)
		}
		if i > 0 && cands[i-1] >= c {
			t.Errorf("candidates not strictly increasing at %d", i)
		}
	}
	if cands[len(cands)-1] != MaxHyperperiod {
		t.Errorf("largest candidate = %d, want %d", cands[len(cands)-1], MaxHyperperiod)
	}
}

func TestUtilValidate(t *testing.T) {
	cases := []struct {
		u  Util
		ok bool
	}{
		{Util{1, 4}, true},
		{Util{1, 1}, true},
		{Util{0, 4}, false},
		{Util{-1, 4}, false},
		{Util{5, 4}, false},
		{Util{1, 0}, false},
		{Util{1, -2}, false},
	}
	for _, c := range cases {
		if err := c.u.Validate(); (err == nil) != c.ok {
			t.Errorf("Util%v.Validate() = %v, want ok=%v", c.u, err, c.ok)
		}
	}
}

func TestUtilHelpers(t *testing.T) {
	u := UtilFromPPM(250_000)
	if u.Float() != 0.25 {
		t.Errorf("Float() = %v", u.Float())
	}
	if !(Util{1, 1}).IsFull() || (Util{1, 2}).IsFull() {
		t.Error("IsFull wrong")
	}
	if got := (Util{1, 3}).PPM(); got != 333_334 { // rounded up
		t.Errorf("PPM() = %d, want 333334", got)
	}
	if got := (Util{1, 4}).Cost(1000); got != 250 {
		t.Errorf("Cost(1000) = %d, want 250", got)
	}
	if got := (Util{1, 3}).Cost(1000); got != 334 { // ceil
		t.Errorf("Cost(1000) = %d, want 334", got)
	}
	fs := FairShare(16, 64)
	if fs.Float() != 0.25 {
		t.Errorf("FairShare(16,64) = %v", fs)
	}
}

func TestPickPeriodPaperScenario(t *testing.T) {
	// Paper Sec. 7.2: U=25%, L=20 ms leads the planner to pick a period
	// of "roughly 13 ms with a budget of about 3.2 ms". The in-bound
	// candidates are 12,837,825 ns (not divisible by 4) and 11,411,400
	// ns (divisible); we prefer the exactly-divisible one so that four
	// 25% vCPUs pack onto one core with zero rounding inflation, giving
	// a ~11.4 ms period with a ~2.85 ms budget — same order as the
	// paper.
	cands := CandidatePeriods()
	u := Util{1, 4}
	period, ok := PickPeriod(u, 20_000_000, cands)
	if !ok {
		t.Fatal("PickPeriod failed")
	}
	if period != 11_411_400 {
		t.Errorf("period = %d, want 11411400", period)
	}
	if c := u.Cost(period); c != 2_852_850 {
		t.Errorf("budget = %d, want 2852850", c)
	}
	// Blackout bound honored: 2*(1-1/4)*T <= 20 ms.
	if 2*3*period > 20_000_000*4 {
		t.Error("picked period violates the blackout bound")
	}
}

func TestPickPeriodFallbackToInexact(t *testing.T) {
	// A denominator coprime to the hyperperiod forces the ceil()
	// fallback: the largest in-bound candidate is chosen.
	cands := CandidatePeriods()
	u := Util{1, 1009} // 1009 is prime and does not divide 102702600
	p, ok := PickPeriod(u, 210_000_000, cands)
	if !ok {
		t.Fatal("fallback failed")
	}
	if p != MaxHyperperiod {
		t.Errorf("period = %d, want %d", p, MaxHyperperiod)
	}
}

func TestPickPeriodEdges(t *testing.T) {
	cands := CandidatePeriods()
	// Impossibly tight goal.
	if _, ok := PickPeriod(Util{1, 4}, 1, cands); ok {
		t.Error("1 ns latency goal should be unenforceable")
	}
	if _, ok := PickPeriod(Util{1, 4}, 0, cands); ok {
		t.Error("zero latency goal must fail")
	}
	// Very loose goal picks the maximum period.
	p, ok := PickPeriod(Util{1, 4}, 1_000_000_000, cands)
	if !ok || p != MaxHyperperiod {
		t.Errorf("loose goal: period = %d, ok=%v; want max hyperperiod", p, ok)
	}
	// U close to 1 makes even tight goals enforceable: blackout scales
	// with (1-U).
	p, ok = PickPeriod(Util{999, 1000}, 1_000_000, cands)
	if !ok {
		t.Fatal("high-utilization task should accept tight goals")
	}
	if 2*(1000-999)*p > 1_000_000*1000 {
		t.Errorf("picked period %d violates the blackout bound", p)
	}
}

// Property: PickPeriod always satisfies the blackout bound and is
// maximal among candidates.
func TestPickPeriodProperty(t *testing.T) {
	cands := CandidatePeriods()
	f := func(num16, den16 uint16, goalMS uint8) bool {
		den := int64(den16%1000) + 2
		num := int64(num16)%den + 1
		u := Util{num, den}
		goal := (int64(goalMS) + 1) * 1_000_000 // 1..256 ms
		p, ok := PickPeriod(u, goal, cands)
		if !ok {
			// Then even the smallest candidate must violate the bound.
			return 2*(den-num)*cands[0] > goal*den
		}
		if 2*(den-num)*p > goal*den {
			return false
		}
		exact := (num*p)%den == 0
		for _, c := range cands {
			if 2*(den-num)*c > goal*den {
				continue // out of bound
			}
			if exact {
				// Maximal among exact-dividing in-bound candidates.
				if c > p && (num*c)%den == 0 {
					return false
				}
			} else {
				// Fallback: maximal in-bound, and no in-bound candidate
				// divides evenly.
				if c > p || (num*c)%den == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTaskFor(t *testing.T) {
	tk, err := TaskFor("v0", 3, Util{1, 4}, 20_000_000, CandidatePeriods())
	if err != nil {
		t.Fatal(err)
	}
	if tk.Name != "v0" || tk.Group != 3 {
		t.Errorf("identity fields wrong: %+v", tk)
	}
	if !tk.Implicit() {
		t.Error("fresh vCPU tasks must have implicit deadlines")
	}
	if tk.WCET*4 < tk.Period {
		t.Errorf("budget %d under-provisions utilization 1/4 of period %d", tk.WCET, tk.Period)
	}
	if _, err := TaskFor("v1", 0, Util{0, 4}, 20_000_000, CandidatePeriods()); err == nil {
		t.Error("invalid utilization accepted")
	}
	if _, err := TaskFor("v1", 0, Util{1, 4}, 10, CandidatePeriods()); err == nil {
		t.Error("unenforceable latency goal accepted")
	}
}

func TestAdmit(t *testing.T) {
	ok := []VCPUSpec{
		{Name: "a", Util: Util{1, 2}, LatencyGoal: 1e7},
		{Name: "b", Util: Util{1, 2}, LatencyGoal: 1e7},
	}
	if err := Admit(ok, 1); err != nil {
		t.Errorf("exactly-full system rejected: %v", err)
	}
	over := append(ok, VCPUSpec{Name: "c", Util: Util{1, 1000}, LatencyGoal: 1e7})
	err := Admit(over, 1)
	if err == nil {
		t.Fatal("over-utilized system admitted")
	}
	if _, isOver := err.(*ErrOverUtilized); !isOver {
		t.Errorf("error type = %T, want *ErrOverUtilized", err)
	}
	dup := []VCPUSpec{
		{Name: "a", Util: Util{1, 4}, LatencyGoal: 1e7},
		{Name: "a", Util: Util{1, 4}, LatencyGoal: 1e7},
	}
	if err := Admit(dup, 4); err == nil {
		t.Error("duplicate names admitted")
	}
	if err := Admit(ok, 0); err == nil {
		t.Error("zero cores admitted")
	}
}

// pickPeriodScan is PickPeriod as it was before the divisor shortcut and
// the reduced, 128-bit arithmetic: a scan down the in-bound prefix for an
// exact budget in plain int64. For the utilizations and goals its tests
// draw no product overflows, so it is the reference the shortcut is
// held to.
func pickPeriodScan(u Util, latencyGoal int64, candidates []int64) (int64, bool) {
	if latencyGoal <= 0 {
		return 0, false
	}
	slack := 2 * (u.Den - u.Num)
	bound := latencyGoal * u.Den
	var fallback int64
	for i := len(candidates) - 1; i >= 0; i-- {
		t := candidates[i]
		if slack*t > bound {
			continue
		}
		if (u.Num*t)%u.Den == 0 {
			return t, true
		}
		if fallback == 0 {
			fallback = t
		}
	}
	return fallback, fallback != 0
}

// TestPickPeriodShortcutMatchesScan: on the planner's own candidate list
// (the divisor shortcut) and on a caller's copy of it (the scan),
// PickPeriod picks what the full scan picks, for every denominator up to
// 4096, a sample of numerators, and goals from 100 µs to 1 s.
func TestPickPeriodShortcutMatchesScan(t *testing.T) {
	own, copied := candidates(), CandidatePeriods()
	var goals []int64
	for g := int64(100_000); g <= 1_000_000_000; g = g * 3 / 2 {
		goals = append(goals, g)
	}
	shortcut := 0
	for den := int64(1); den <= 4096; den++ {
		for _, num := range []int64{1, den / 3, den / 2, den - 1, den} {
			if num < 1 {
				continue
			}
			u := Util{num, den}
			for _, g := range goals {
				want, wantOK := pickPeriodScan(u, g, copied)
				for _, cands := range [][]int64{own, copied} {
					if got, ok := PickPeriod(u, g, cands); got != want || ok != wantOK {
						t.Fatalf("PickPeriod(%d/%d, %d) = %d, %v; the scan picks %d, %v", num, den, g, got, ok, want, wantOK)
					}
				}
				if MaxHyperperiod%(den/gcd64(num, den)) != 0 {
					shortcut++
				}
			}
		}
	}
	if shortcut == 0 {
		t.Error("no case took the divisor shortcut")
	}
}

// TestEqualUtilizationsPlanAlike: k·u picks the period and budget u
// does, for k up to 2^30 and every goal of a grid — the products that
// overflowed int64 once made equal utilizations plan differently — and
// the two such specs that were refused or mis-planned now plan.
func TestEqualUtilizationsPlanAlike(t *testing.T) {
	cands := CandidatePeriods()
	utils := []Util{{1, 2}, {1, 3}, {1, 16}, {1, 64}, {3, 8}, {999, 1000}, {1, 1009}, {185_000, 1_000_000}, {1, 1}}
	goals := []int64{100_000, 1_000_000, 5_000_000, 10_000_000, 20_000_000, 100_000_000, 1_000_000_000}
	for _, u := range utils {
		for _, k := range []int64{1, 2, 3, 7, 1 << 10, 1<<20 + 1, 1<<30 - 1, 1 << 30} {
			ku := Util{k * u.Num, k * u.Den}
			if got, want := ku.PPM(), u.PPM(); got != want {
				t.Errorf("%d·%v: PPM %d, want %d", k, u, got, want)
			}
			for _, g := range goals {
				p, ok := PickPeriod(u, g, cands)
				kp, kok := PickPeriod(ku, g, cands)
				if kp != p || kok != ok {
					t.Fatalf("%d·%v at goal %d: period %d, %v; %v picks %d, %v", k, u, g, kp, kok, u, p, ok)
				}
				if ok && ku.Cost(p) != u.Cost(p) {
					t.Fatalf("%d·%v: budget %d over %d, %v's is %d", k, u, ku.Cost(p), p, u, u.Cost(p))
				}
			}
		}
	}
	for _, u := range []Util{{1 << 39, 1 << 40}, {3, 1 << 45}} {
		spec := VCPUSpec{Name: "v", Util: u, LatencyGoal: 10_000_000}
		if _, err := Plan([]VCPUSpec{spec}, Options{Cores: 1}); err != nil {
			t.Errorf("%v at a 10 ms goal: %v", u, err)
		}
	}
}
