package table_test

// DecodeBytes is checked three ways: against the streaming decoder it
// replaced (table.DecodeReference, which lives only in the test build),
// against itself with and without cross-epoch sharing, and — in
// FuzzTableDecode — against the reference on whatever the fuzzer finds.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// agreeWithReference decodes enc both ways and demands the same table,
// or an error from both.
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
// fuzz corpus, the encoding and the older index-carrying image of every
// digest-shaped table, and every truncation and every single-bit flip
// of one small table.
func TestDecodeBytesMatchesReference(t *testing.T) {
	for i, enc := range corpusEntries(t) {
		agreeWithReference(t, fmt.Sprintf("corpus seed %d", i), enc)
	}
	for i, tbl := range digestShapedTables(t) {
		legacy := table.AppendLegacy(nil, tbl)
		compact, err := tbl.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatal(err)
		}
		agreeWithReference(t, fmt.Sprintf("table %d, legacy", i), legacy)
		agreeWithReference(t, fmt.Sprintf("table %d, compact", i), compact)
		// Both images decode to one table, which re-encodes to the
		// compact bytes.
		fromLegacy, err := table.DecodeBytes(legacy)
		if err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		if got, err := table.DecodeBytes(compact); err != nil || !reflect.DeepEqual(got, fromLegacy) {
			t.Fatalf("table %d: the legacy and the compact image decode apart: %v", i, err)
		}
		if again, err := fromLegacy.AppendEncodedCompact(nil); err != nil || !bytes.Equal(again, compact) {
			t.Fatalf("table %d does not re-encode to its compact bytes: %v", i, err)
		}
	}

	small := corpusTables(t)[1] // 2 cores, 8 vCPUs
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

// sharesCore reports whether two cores share their allocation list (the
// same backing array, not merely an equal one).
func sharesCore(a, b *table.CoreTable) bool {
	return len(a.Allocs) > 0 && len(b.Allocs) > 0 && &a.Allocs[0] == &b.Allocs[0]
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

// chainOf decodes encs as one chain and returns every table of it.
func chainOf(t *testing.T, encs ...[]byte) []*table.Table {
	t.Helper()
	ts, err := table.DecodeChain(encs, len(encs))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// encode is tbl's compact encoding.
func encode(t *testing.T, tbl *table.Table) []byte {
	t.Helper()
	enc, err := tbl.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// withVCPUs is tbl cut to its first n vCPUs: their allocations stay,
// the others' go.
func withVCPUs(tbl *table.Table, n int) *table.Table {
	out := *tbl
	out.VCPUs = tbl.VCPUs[:n]
	out.Cores = slices.Clone(tbl.Cores)
	for ci := range out.Cores {
		out.Cores[ci].Allocs = slices.DeleteFunc(slices.Clone(tbl.Cores[ci].Allocs), func(a table.Alloc) bool { return a.VCPU >= n })
	}
	return &out
}

// TestDecodeSharingEqualsPlain: decoding an epoch chain of full
// encodings gives exactly the tables plain decoding gives, while
// unchanged cores share their memory with the epoch before; and nothing
// is shared that the bytes do not prove equal.
func TestDecodeSharingEqualsPlain(t *testing.T) {
	const epochs = 60
	encs := denseChain(t, epochs)
	chained := chainOf(t, encs...)

	unchanged, adopted, cores := 0, 0, 0
	rng := rand.New(rand.NewSource(3))
	for i, enc := range encs {
		plain, err := table.DecodeBytes(enc)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		shared := chained[i]
		if !reflect.DeepEqual(shared, plain) {
			t.Fatalf("epoch %d: the chain's decode differs from the plain one", i)
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
		if i > 0 {
			// A core is adopted exactly when its allocation list (and id)
			// did not change.
			prev := chained[i-1]
			for ci := range shared.Cores {
				same := reflect.DeepEqual(plain.Cores[ci], prev.Cores[ci]) && plain.Len == prev.Len
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
	}
	if unchanged == 0 || adopted != unchanged {
		t.Fatalf("adopted %d of %d unchanged cores (%d in all)", adopted, unchanged, cores)
	}
	t.Logf("adopted %d of %d cores over %d epochs (%.0f%%)", adopted, cores, epochs, 100*float64(adopted)/float64(cores))

	// From here on: one pair of consecutive epochs, perturbed.
	last, lastEnc, olderEnc := chained[epochs-1], encs[epochs-1], encs[epochs-2]
	pair := chainOf(t, olderEnc, lastEnc)
	older := pair[0]
	if sharedCores(pair[1], older) == 0 {
		t.Fatal("the last two epochs share no core; the perturbation cases below would prove nothing")
	}

	t.Run("one byte", func(t *testing.T) {
		// Start a shared core's first allocation 1 ns later (the low byte
		// of its Start field): exactly that core's segment now differs,
		// so exactly that core is parsed.
		ci := 0
		for !sharesCore(&pair[1].Cores[ci], &older.Cores[ci]) {
			ci++
		}
		off := len(lastEnc)
		for c := len(last.Cores) - 1; c >= ci; c-- {
			off -= 20 + 20*len(last.Cores[c].Allocs)
		}
		mut := bytes.Clone(lastEnc)
		mut[off+16]++ // past the core id, the slice length and the count
		got := chainOf(t, olderEnc, mut)
		want, err := table.DecodeBytes(mut)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[1], want) {
			t.Fatal("the chain's decode of the mutated image differs from the plain one")
		}
		if sharesCore(&got[1].Cores[ci], &got[0].Cores[ci]) {
			t.Fatalf("core %d is shared although a byte of its segment changed", ci)
		}
		if n, m := sharedCores(got[1], got[0]), sharedCores(pair[1], older); n != m-1 {
			t.Fatalf("%d cores shared after the change, want %d (one fewer)", n, m-1)
		}
	})

	nothing := func(name string, prevEnc []byte) {
		t.Run(name, func(t *testing.T) {
			ts := chainOf(t, prevEnc, lastEnc)
			if !reflect.DeepEqual(ts[1], last) {
				t.Fatal("the decode differs from the plain one")
			}
			if n := sharedCores(ts[1], ts[0]); n != 0 {
				t.Fatalf("%d cores shared", n)
			}
		})
	}
	otherLen := *older
	otherLen.Len *= 2
	nothing("another table length", encode(t, &otherLen))
	// One core fewer: the vCPUs homed on it lose their home.
	fewer := *older
	fewer.Cores = older.Cores[:len(older.Cores)-1]
	fewer.VCPUs = slices.Clone(older.VCPUs)
	for i := range fewer.VCPUs {
		if fewer.VCPUs[i].HomeCore >= len(fewer.Cores) {
			fewer.VCPUs[i].HomeCore = -1
		}
	}
	nothing("another core count", encode(t, &fewer))
	nothing("a non-compact previous encoding", table.AppendLegacy(nil, older))
	// Cores are compared at their own index, never matched up elsewhere.
	rotated := *older
	rotated.Cores = append(slices.Clone(older.Cores[1:]), older.Cores[0])
	nothing("the same cores in another order", encode(t, &rotated))
	t.Run("no previous bytes", func(t *testing.T) {
		ts := chainOf(t, lastEnc)
		if !reflect.DeepEqual(ts[0], last) || sharedCores(ts[0], last) != 0 {
			t.Fatal("a chain of one encoding is not its plain decode")
		}
	})
}

// TestDecodeSharingSharesUnchangedNames: a vCPU whose name bytes equal
// those of the previous table's vCPU at the same index takes that
// string, whether or not any core is shared; a renamed vCPU, and one the
// previous table does not have, get strings of their own; and the table
// is DecodeBytes's either way.
func TestDecodeSharingSharesUnchangedNames(t *testing.T) {
	encs := denseChain(t, 2)
	first, err := table.DecodeBytes(encs[0])
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	check := func(name string, enc, prevEnc []byte, coresShared bool) {
		t.Run(name, func(t *testing.T) {
			ts := chainOf(t, prevEnc, enc)
			prev, got := ts[0], ts[1]
			want, err := table.DecodeBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the chain's decode differs from the plain one")
			}
			if n := sharedCores(got, prev); (n > 0) != coresShared {
				t.Fatalf("%d cores shared", n)
			}
			sharedNames := 0
			for i, v := range got.VCPUs {
				equal := i < len(prev.VCPUs) && v.Name == prev.VCPUs[i].Name
				shared := i < len(prev.VCPUs) && same(v.Name, prev.VCPUs[i].Name)
				if shared != equal {
					t.Fatalf("vCPU %d (%q): equal to prev's = %v, shared = %v", i, v.Name, equal, shared)
				}
				if shared {
					sharedNames++
				}
			}
			if sharedNames == 0 {
				t.Fatal("no name was shared; the case proves nothing")
			}
		})
	}
	check("the next epoch", encs[1], encs[0], true)
	otherLen := *first
	otherLen.Len *= 2
	check("another table length, no cores shared", encs[1], encode(t, &otherLen), false)

	renamed, err := table.DecodeBytes(encs[1])
	if err != nil {
		t.Fatal(err)
	}
	renamed.VCPUs = slices.Clone(renamed.VCPUs)
	renamed.VCPUs[5].Name = "renamed"
	enc := encode(t, renamed)
	check("one vCPU renamed", enc, encs[0], true)
	check("prev has fewer vCPUs", enc, encode(t, withVCPUs(first, len(first.VCPUs)/2)), false)
}

// TestDecodeLegacyGolden: an image written by the encoder that still put
// the slice index on the wire decodes to the table the planner plans
// today. Its index words are checked for framing and dropped: a wrong
// word changes nothing, a count that overruns the image is refused.
func TestDecodeLegacyGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_2core.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	compact := corpusTables(t)[1] // the same plan, encoded today
	want, err := table.DecodeBytes(compact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.DecodeBytes(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the legacy image decodes to another table than its compact encoding")
	}
	if !bytes.Equal(table.AppendLegacy(nil, got), golden) {
		t.Fatal("AppendLegacy does not reproduce the legacy image")
	}
	if len(golden) <= len(compact) {
		t.Fatalf("the legacy image (%d bytes) carries no index over the compact one (%d)", len(golden), len(compact))
	}

	// The last core's last index word, then its index count.
	wrongWord := bytes.Clone(golden)
	wrongWord[len(wrongWord)-4] ^= 0x7f
	if got, err := table.DecodeBytes(wrongWord); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a wrong index word changed the decode: %v", err)
	}
	last := want.Cores[len(want.Cores)-1]
	countAt := len(golden) - 4*want.SliceCount() + 4*(want.SliceCount()-lastCoreSlices(want)) - 4
	if n := binary.LittleEndian.Uint32(golden[countAt:]); int(n) != lastCoreSlices(want) {
		t.Fatalf("index count of core %d reads %d, want %d", last.Core, n, lastCoreSlices(want))
	}
	overrun := bytes.Clone(golden)
	binary.LittleEndian.PutUint32(overrun[countAt:], uint32(lastCoreSlices(want)+1))
	if _, err := table.DecodeBytes(overrun); err == nil {
		t.Fatal("an index count that overruns the image was accepted")
	}
	agreeWithReference(t, "overrun index count", overrun)
}

// lastCoreSlices is the index length of t's last core.
func lastCoreSlices(t *table.Table) int {
	last := &table.Table{Len: t.Len, Cores: t.Cores[len(t.Cores)-1:]}
	return last.SliceCount()
}

// TestDecodeDeltaEqualsFull: along a dense epoch chain written as a
// full encoding and then each epoch's delta against the one before, the
// chain decodes to exactly the tables their full encodings decode to.
// What a delta does not list is the previous table's own memory —
// unchanged cores and the names of unchanged vCPUs — and the delta
// carries only what changed. Decoding only the chain's last table
// builds none before it and gives the same table.
func TestDecodeDeltaEqualsFull(t *testing.T) {
	const epochs = 30
	encs := denseChain(t, epochs)
	plain := make([]*table.Table, epochs)
	chain := [][]byte{encs[0]}
	full, deltas := 0, 0
	for i, enc := range encs {
		var err error
		if plain[i], err = table.DecodeBytes(enc); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		delta, err := plain[i].AppendEncodedDelta(nil, plain[i-1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := table.DecodeBytes(delta); err == nil {
			t.Fatal("a delta decoded as a full encoding")
		}
		chain = append(chain, delta)
		full += len(enc)
		deltas += len(delta)
	}
	got := chainOf(t, chain...)
	changed := 0
	for i := range got {
		if !reflect.DeepEqual(got[i], plain[i]) {
			t.Fatalf("epoch %d: the delta chain decodes to another table than the full encoding", i)
		}
		if i == 0 {
			continue
		}
		for ci := range got[i].Cores {
			same := reflect.DeepEqual(plain[i].Cores[ci], plain[i-1].Cores[ci])
			if !same {
				changed++
			}
			if shared := sharesCore(&got[i].Cores[ci], &got[i-1].Cores[ci]); shared != same {
				t.Fatalf("epoch %d core %d: unchanged = %v, shared with the epoch before = %v", i, ci, same, shared)
			}
		}
		for vi, v := range got[i].VCPUs {
			if p := got[i-1].VCPUs[vi].Name; v.Name == p && unsafe.StringData(v.Name) != unsafe.StringData(p) {
				t.Fatalf("epoch %d: vCPU %d's unchanged name is a new string", i, vi)
			}
		}
	}
	last, err := table.DecodeChain(chain, 1)
	if err != nil || len(last) != 1 || !reflect.DeepEqual(last[0], plain[epochs-1]) {
		t.Fatalf("the chain's last table alone: %v", err)
	}
	t.Logf("%d epochs: deltas are %d bytes against %d full (%.1f%%), %.1f of 16 cores changed per epoch",
		epochs-1, deltas, full, 100*float64(deltas)/float64(full), float64(changed)/(epochs-1))
	if changed == 0 || 4*deltas > full {
		t.Fatalf("deltas of %d bytes for %d full ones with %d changed cores: the chain does not exercise the delta", deltas, full, changed)
	}
}

// TestDecodeDeltaRejectsMalformed: a delta is refused when it is cut
// short or overlong, lists out of order or past the table, leaves an
// index the table before lacks unlisted, or decodes to an invalid table;
// and a chain may not start with one.
func TestDecodeDeltaRejectsMalformed(t *testing.T) {
	baseEnc := corpusTables(t)[1] // 2 cores, 8 vCPUs
	base, err := table.DecodeBytes(baseEnc)
	if err != nil {
		t.Fatal(err)
	}
	// Move each core's first allocation 1 ns later, and rename vCPU 3.
	next := *base
	next.Generation++
	next.VCPUs = slices.Clone(base.VCPUs)
	next.VCPUs[3].Name = "renamed"
	next.Cores = slices.Clone(base.Cores)
	for ci := range next.Cores {
		next.Cores[ci].Allocs = slices.Clone(base.Cores[ci].Allocs)
		next.Cores[ci].Allocs[0].Start++
	}
	delta, err := next.AppendEncodedDelta(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := chainOf(t, baseEnc, delta); !reflect.DeepEqual(got[1], &next) {
		t.Fatal("the well-formed delta decodes to another table")
	}
	// Layout: 30-byte header; the vCPU list (count, then index 3 and its
	// record); the core list (count, then index 0 and its segment, index 1
	// and its segment).
	vcpuList := 30
	coreList := vcpuList + 4 + 4 + 2 + len("renamed") + 1 + 4 + 8 + 8
	core0 := coreList + 4
	core1 := core0 + 4 + 20 + 20*len(next.Cores[0].Allocs)
	if n := binary.LittleEndian.Uint32(delta[core1:]); n != 1 {
		t.Fatalf("layout: core 1's index reads %d", n)
	}
	refused := func(name string, chain ...[]byte) {
		t.Helper()
		if _, err := table.DecodeChain(chain, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for n := 0; n < len(delta); n++ {
		refused(fmt.Sprintf("cut to %d bytes", n), baseEnc, delta[:n])
	}
	refused("a trailing byte", baseEnc, append(bytes.Clone(delta), 0))
	refused("a chain that starts with a delta", delta)
	put := func(at int, v uint32) []byte {
		b := bytes.Clone(delta)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	refused("a core index past the table", baseEnc, put(core1, 2))
	refused("a vCPU index past the table", baseEnc, put(vcpuList+4, 8))
	refused("core indices out of order", baseEnc, put(core1, 0))
	refused("more cores listed than the table has", baseEnc, put(coreList, 3))
	// One core fewer before the delta: the delta must list core 1.
	fewer := *base
	fewer.Cores = base.Cores[:1]
	fewer.VCPUs = slices.Clone(base.VCPUs)
	for i := range fewer.VCPUs {
		if fewer.VCPUs[i].HomeCore >= 1 {
			fewer.VCPUs[i].HomeCore = -1
		}
	}
	if _, err := table.DecodeChain([][]byte{encode(t, &fewer), delta}, 1); err != nil {
		t.Errorf("a table one core short, the delta listing that core: %v", err)
	}
	refused("a table one core short, the delta not listing it", encode(t, &fewer), put(coreList, 1)[:core1])
	refused("a table one vCPU short, the delta not listing it", encode(t, withVCPUs(base, 7)), delta)
	// A delta listing nothing under a header whose length fits no core.
	empty, err := (&table.Table{Len: 1, Generation: 9, Cores: base.Cores, VCPUs: base.VCPUs}).AppendEncodedDelta(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	refused("an invalid result", baseEnc, empty)
}
