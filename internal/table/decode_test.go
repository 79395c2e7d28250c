package table_test

// DecodeBytes is checked three ways: against the streaming decoder it
// replaced (table.DecodeReference, which lives only in the test build),
// against itself with and without cross-epoch sharing, and — in
// FuzzTableDecode — against the reference on whatever the fuzzer finds.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// agreeWithReference decodes enc both ways and demands the same table,
// slice index included, or an error from both.
func agreeWithReference(t *testing.T, what string, enc []byte) {
	t.Helper()
	want, werr := table.DecodeReference(bytes.NewReader(enc))
	got, gerr := table.DecodeBytes(enc)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: DecodeBytes err = %v, reference err = %v", what, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DecodeBytes and the reference decoder disagree on the table", what)
	}
}

// The populations below are the shapes planner's TestPlanDigests pins
// (its generators are internal to that package): 8-core fleet hosts of
// the benchmark's VM mix, the dense 16-core host, and nearly full hosts
// that have to split vCPUs or fall back to the cluster stage.
var (
	mixUtils = []planner.Util{{Num: 1, Den: 16}, {Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	mixGoals = []int64{5_000_000, 10_000_000, 20_000_000}
)

func fleetHostSpecs(rng *rand.Rand, n int) []planner.VCPUSpec {
	specs := []planner.VCPUSpec{{Name: "sys", Util: planner.Util{Num: 1, Den: 64}, LatencyGoal: 100_000_000, Capped: true}}
	for s := 1; s < n; s++ {
		sp := planner.VCPUSpec{
			Name: fmt.Sprintf("s%d", s), Util: mixUtils[rng.Intn(len(mixUtils))],
			LatencyGoal: mixGoals[rng.Intn(len(mixGoals))], Capped: true,
		}
		if rng.Intn(4) == 0 {
			sp.Class = planner.BE
		}
		specs = append(specs, sp)
	}
	return specs
}

func denseSpecs(on []bool) []planner.VCPUSpec {
	var specs []planner.VCPUSpec
	for slot, resident := range on {
		if resident {
			specs = append(specs, planner.VCPUSpec{
				Name: fmt.Sprintf("vm%d", slot), Util: planner.Util{Num: 1, Den: 16},
				LatencyGoal: mixGoals[slot%len(mixGoals)], Capped: true,
			})
		}
	}
	return specs
}

func tightSpecs(rng *rand.Rand, cores int) []planner.VCPUSpec {
	goals := []int64{5_000_000, 10_000_000, 20_000_000, 50_000_000}
	var specs []planner.VCPUSpec
	for i := 0; i <= cores; i++ {
		specs = append(specs, planner.VCPUSpec{
			Name: fmt.Sprintf("t%d", i), Util: planner.Util{Num: int64(cores), Den: int64(cores + 1)},
			LatencyGoal: goals[rng.Intn(len(goals))], Capped: rng.Intn(2) == 0,
		})
	}
	return specs
}

// digestShapedTables plans a spread of those populations.
func digestShapedTables(t *testing.T) []*table.Table {
	t.Helper()
	var out []*table.Table
	plan := func(specs []planner.VCPUSpec, opts planner.Options) {
		res, err := planner.Plan(specs, opts)
		if err != nil {
			t.Fatalf("planning a %d-vCPU population on %d cores: %v", len(specs), opts.Cores, err)
		}
		out = append(out, res.Table)
	}
	for seed := 0; seed < 40; seed++ {
		plan(fleetHostSpecs(rand.New(rand.NewSource(int64(seed))), 2+seed%14), planner.Options{Cores: 8})
	}
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(1000 + int64(seed)))
		on := make([]bool, 192)
		for _, slot := range rng.Perm(192)[:160+rng.Intn(33)] {
			on[slot] = true
		}
		plan(denseSpecs(on), planner.Options{Cores: 16})
	}
	for seed := 0; seed < 12; seed++ {
		cores := 2 + seed%3
		specs := tightSpecs(rand.New(rand.NewSource(2000+int64(seed))), cores)
		plan(specs, planner.Options{Cores: cores})
		plan(specs, planner.Options{Cores: cores, DisableSplitting: true})
	}
	return out
}

// TestDecodeBytesMatchesReference is the differential wall between the
// byte-slice decoder and the streaming one it replaced: the committed
// fuzz corpus, the compact and the full encoding of every
// digest-shaped table, and every truncation and every single-bit flip
// of one small table.
func TestDecodeBytesMatchesReference(t *testing.T) {
	for i, enc := range corpusEntries(t) {
		agreeWithReference(t, fmt.Sprintf("corpus seed %d", i), enc)
	}
	for i, tbl := range digestShapedTables(t) {
		full, err := tbl.AppendEncoded(nil)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := tbl.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatal(err)
		}
		agreeWithReference(t, fmt.Sprintf("table %d, full", i), full)
		agreeWithReference(t, fmt.Sprintf("table %d, compact", i), compact)
		// Canonical both ways: what decodes re-encodes to the same bytes.
		if got, err := table.DecodeBytes(full); err != nil {
			t.Fatalf("table %d: %v", i, err)
		} else if again, err := got.AppendEncoded(nil); err != nil || !bytes.Equal(again, full) {
			t.Fatalf("table %d does not re-encode to the bytes it was decoded from: %v", i, err)
		}
	}

	small := corpusTables(t)[1] // 2 cores, 8 vCPUs, with its slice index
	for n := 0; n < len(small); n++ {
		agreeWithReference(t, fmt.Sprintf("truncated to %d bytes", n), small[:n])
	}
	for bit := 0; bit < 8*len(small); bit++ {
		flipped := bytes.Clone(small)
		flipped[bit/8] ^= 1 << (bit % 8)
		agreeWithReference(t, fmt.Sprintf("bit %d flipped", bit), flipped)
	}
}

// TestDecodeBytesRejectsTrailingBytes: the encoding is canonical, so two
// byte strings must not decode to one table — the journal's payload
// decoder already refuses trailing bytes, and so does this one.
func TestDecodeBytesRejectsTrailingBytes(t *testing.T) {
	for i, enc := range corpusTables(t) {
		if _, err := table.DecodeBytes(enc); err != nil {
			t.Fatalf("corpus table %d: %v", i, err)
		}
		if tbl, err := table.DecodeBytes(append(bytes.Clone(enc), 0xde, 0xad, 0xbe, 0xef)); err == nil {
			t.Fatalf("corpus table %d: DecodeBytes accepted 4 trailing bytes (generation %d)", i, tbl.Generation)
		}
		if _, err := table.Decode(bytes.NewReader(append(bytes.Clone(enc), 0))); err == nil {
			t.Fatalf("corpus table %d: Decode accepted a trailing byte", i)
		}
	}
}

// denseChain plans n epochs of a dense host under churn — all 192 VMs
// resident on 16 cores, three of them changing their latency goal per
// step, replanned incrementally on top of the previous result — and
// returns each epoch's compact encoding. vCPU ids stay put
// from epoch to epoch, as they do under core.System, where they are
// slot ids; so a core the step did not touch keeps its wire segment.
func denseChain(t *testing.T, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7200))
	opts := planner.Options{Cores: 16, Slices: planner.NewSliceCache(0)}
	on := make([]bool, 192)
	for slot := range on {
		on[slot] = true
	}
	specs := denseSpecs(on)
	res, err := planner.Plan(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var encs [][]byte
	for {
		res.Table.Generation = uint64(len(encs) + 1)
		enc, err := res.Table.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatal(err)
		}
		if encs = append(encs, enc); len(encs) == n {
			return encs
		}
		prev := &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
		specs = append([]planner.VCPUSpec(nil), specs...)
		for k := 0; k < 3; k++ {
			specs[rng.Intn(len(specs))].LatencyGoal = mixGoals[rng.Intn(len(mixGoals))]
		}
		if res, err = planner.PlanIncremental(specs, opts, prev); err != nil {
			t.Fatal(err)
		}
	}
}

// sharesCore reports whether two cores share their allocation list and
// their slice index (the same backing arrays, not merely equal ones).
func sharesCore(a, b *table.CoreTable) bool {
	ai, bi := a.SliceIndex(), b.SliceIndex()
	return len(a.Allocs) > 0 && len(b.Allocs) > 0 && &a.Allocs[0] == &b.Allocs[0] &&
		len(ai) > 0 && len(bi) > 0 && &ai[0] == &bi[0]
}

func sharedCores(a, b *table.Table) int {
	n := 0
	for ci := range a.Cores {
		if ci < len(b.Cores) && sharesCore(&a.Cores[ci], &b.Cores[ci]) {
			n++
		}
	}
	return n
}

// TestDecodeSharingEqualsPlain: decoding an epoch chain with sharing
// gives exactly the tables plain decoding gives, while unchanged cores
// share their memory with the epoch before; and nothing is shared that
// the bytes do not prove equal.
func TestDecodeSharingEqualsPlain(t *testing.T) {
	const epochs = 60
	encs := denseChain(t, epochs)

	var prev *table.Table
	unchanged, adopted, cores := 0, 0, 0
	rng := rand.New(rand.NewSource(3))
	for i, enc := range encs {
		plain, err := table.DecodeBytes(enc)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		var prevEnc []byte
		if i > 0 {
			prevEnc = encs[i-1]
		}
		shared, err := table.DecodeBytesSharing(enc, prev, prevEnc)
		if err != nil {
			t.Fatalf("epoch %d with sharing: %v", i, err)
		}
		if !reflect.DeepEqual(shared, plain) {
			t.Fatalf("epoch %d: the sharing decode differs from the plain one", i)
		}
		if err := shared.CheckSlices(); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if sharedCores(shared, plain) != 0 {
			t.Fatalf("epoch %d: a plain decode shares memory with another table", i)
		}
		for k := 0; k < 10_000/epochs+1; k++ {
			core, now := rng.Intn(len(plain.Cores)), rng.Int63n(3*plain.Len)
			v1, r1, u1 := shared.Lookup(core, now)
			v2, r2, u2 := plain.Lookup(core, now)
			if v1 != v2 || r1 != r2 || u1 != u2 {
				t.Fatalf("epoch %d: Lookup(%d, %d) = (%d,%v,%d) shared, (%d,%v,%d) plain", i, core, now, v1, r1, u1, v2, r2, u2)
			}
		}
		if prev != nil {
			// A core is adopted exactly when its allocation list (and id)
			// did not change: that is when its compact segment is the same.
			for ci := range shared.Cores {
				same := reflect.DeepEqual(plain.Cores[ci].Allocs, prev.Cores[ci].Allocs) && plain.Len == prev.Len
				if same {
					unchanged++
				}
				if got := sharesCore(&shared.Cores[ci], &prev.Cores[ci]); got != same {
					t.Fatalf("epoch %d core %d: unchanged = %v but shared with the previous epoch = %v", i, ci, same, got)
				}
			}
			adopted += sharedCores(shared, prev)
			cores += len(shared.Cores)
		}
		prev = shared
	}
	if unchanged == 0 || adopted != unchanged {
		t.Fatalf("adopted %d of %d unchanged cores (%d in all)", adopted, unchanged, cores)
	}
	t.Logf("adopted %d of %d cores over %d epochs (%.0f%%)", adopted, cores, epochs, 100*float64(adopted)/float64(cores))

	// From here on: one pair of consecutive epochs, perturbed.
	last, lastEnc := prev, encs[epochs-1]
	older, err := table.DecodeBytes(encs[epochs-2])
	if err != nil {
		t.Fatal(err)
	}
	base, err := table.DecodeBytesSharing(lastEnc, older, encs[epochs-2])
	if err != nil {
		t.Fatal(err)
	}
	if sharedCores(base, older) == 0 {
		t.Fatal("the last two epochs share no core; the perturbation cases below would prove nothing")
	}

	t.Run("one byte", func(t *testing.T) {
		// Start a shared core's first allocation 1 ns later (the low byte
		// of its Start field): exactly that core's segment now differs,
		// so exactly that core is parsed.
		ci := 0
		for !sharesCore(&base.Cores[ci], &older.Cores[ci]) {
			ci++
		}
		off := len(lastEnc)
		for c := len(last.Cores) - 1; c >= ci; c-- {
			off -= 20 + 20*len(last.Cores[c].Allocs)
		}
		mut := bytes.Clone(lastEnc)
		mut[off+16]++ // past the core id, the slice length and the count
		got, err := table.DecodeBytesSharing(mut, older, encs[epochs-2])
		if err != nil {
			t.Fatal(err)
		}
		want, err := table.DecodeBytes(mut)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the sharing decode of the mutated image differs from the plain one")
		}
		if sharesCore(&got.Cores[ci], &older.Cores[ci]) {
			t.Fatalf("core %d is shared although a byte of its segment changed", ci)
		}
		if n, m := sharedCores(got, older), sharedCores(base, older); n != m-1 {
			t.Fatalf("%d cores shared after the change, want %d (one fewer)", n, m-1)
		}
	})

	nothing := func(name string, prev *table.Table, prevEnc []byte) {
		t.Run(name, func(t *testing.T) {
			got, err := table.DecodeBytesSharing(lastEnc, prev, prevEnc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, last) {
				t.Fatal("the decode differs from the plain one")
			}
			if n := sharedCores(got, prev); n != 0 {
				t.Fatalf("%d cores shared", n)
			}
		})
	}
	otherLen := *older
	otherLen.Len *= 2
	nothing("another table length", &otherLen, encs[epochs-2])
	fewer := *older
	fewer.Cores = older.Cores[:len(older.Cores)-1]
	nothing("another core count", &fewer, encs[epochs-2])
	full, err := older.AppendEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	nothing("a non-compact previous encoding", older, full)
	nothing("no previous bytes", older, nil)
}
