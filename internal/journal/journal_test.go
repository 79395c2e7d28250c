package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// testRecord builds a realistic epoch record: a planned table for a
// small population, encoded compactly, plus the population snapshot.
func testRecord(t *testing.T, version uint64) *EpochRecord {
	t.Helper()
	specs := []planner.VCPUSpec{
		{Name: "a", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 30_000_000},
		{Name: "b", Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 30_000_000, Capped: true},
	}
	res, err := planner.Plan(specs, planner.Options{Cores: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	res.Table.Generation = version
	enc, err := res.Table.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return &EpochRecord{
		Version: version,
		Slots: []SlotConfig{
			{Name: "a", UtilNum: 1, UtilDen: 4, LatencyGoal: 30_000_000, Active: true},
			{Name: "b", UtilNum: 1, UtilDen: 8, LatencyGoal: 30_000_000, Capped: true, Active: true},
			{Name: "spare", UtilNum: 1, UtilDen: 8, LatencyGoal: 30_000_000, Active: false},
		},
		FailedCores: []int{1},
		Guarantees:  res.Guarantees,
		TableBytes:  enc,
	}
}

func appendRecords(t *testing.T, recs ...*EpochRecord) []byte {
	t.Helper()
	img := AppendHeader(nil)
	for _, r := range recs {
		var err error
		img, err = AppendRecord(img, r, nil)
		if err != nil {
			t.Fatalf("AppendRecord: %v", err)
		}
	}
	return img
}

func TestRoundTrip(t *testing.T) {
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	img := appendRecords(t, r1, r2)

	rep, err := DecodeAll(img)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if rep.TailErr != nil || rep.Truncated != 0 {
		t.Fatalf("clean journal reported tail damage: %v (%d bytes)", rep.TailErr, rep.Truncated)
	}
	if len(rep.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(rep.Records))
	}
	if rep.Good != len(img) {
		t.Fatalf("Good = %d, want %d", rep.Good, len(img))
	}
	for i, want := range []*EpochRecord{r1, r2} {
		got := rep.Records[i]
		if got.Version != want.Version {
			t.Errorf("record %d: version %d, want %d", i, got.Version, want.Version)
		}
		if len(got.Slots) != len(want.Slots) {
			t.Fatalf("record %d: %d slots, want %d", i, len(got.Slots), len(want.Slots))
		}
		for j := range want.Slots {
			if got.Slots[j] != want.Slots[j] {
				t.Errorf("record %d slot %d: %+v, want %+v", i, j, got.Slots[j], want.Slots[j])
			}
		}
		if len(got.FailedCores) != 1 || got.FailedCores[0] != 1 {
			t.Errorf("record %d: failed cores %v, want [1]", i, got.FailedCores)
		}
		if len(got.Guarantees) != len(want.Guarantees) {
			t.Fatalf("record %d: %d guarantees, want %d", i, len(got.Guarantees), len(want.Guarantees))
		}
		for j := range want.Guarantees {
			if got.Guarantees[j] != want.Guarantees[j] {
				t.Errorf("record %d guarantee %d: %+v, want %+v", i, j, got.Guarantees[j], want.Guarantees[j])
			}
		}
		if !bytes.Equal(got.TableBytes, want.TableBytes) {
			t.Errorf("record %d: table bytes differ", i)
		}
		tbl, err := table.DecodeBytes(got.TableBytes)
		if err != nil {
			t.Fatalf("record %d: decoding table: %v", i, err)
		}
		// The encoding carries nothing the table does not hold, so
		// re-encoding the decoded table is byte-identical — the property
		// the recovery-equivalence oracle rests on.
		re, err := tbl.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatalf("record %d: re-encoding: %v", i, err)
		}
		if !bytes.Equal(re, want.TableBytes) {
			t.Errorf("record %d: re-encoded table differs from journaled bytes", i)
		}
	}
}

// TestDecodeAllSharesUnchangedNames: a slot whose name bytes equal those
// of the previous record's slot at the same index is that record's
// string, not a new one; a renamed slot, and a slot the previous record
// did not have, get strings of their own. Sharing changes no value: the
// records re-encode to the image.
func TestDecodeAllSharesUnchangedNames(t *testing.T) {
	r1, r2, r3 := testRecord(t, 1), testRecord(t, 2), testRecord(t, 3)
	r2.Slots[1].Name = "b-renamed"
	r3.Slots = append(r3.Slots, SlotConfig{Name: "extra", UtilNum: 1, UtilDen: 8, LatencyGoal: 30_000_000})
	img := appendRecords(t, r1, r2, r3)
	rep, err := DecodeAll(img)
	if err != nil || rep.TailErr != nil || len(rep.Records) != 3 {
		t.Fatalf("DecodeAll: %v, tail %v", err, rep.TailErr)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for i := 1; i < len(rep.Records); i++ {
		prev, cur := rep.Records[i-1], rep.Records[i]
		for s, slot := range cur.Slots {
			equal := s < len(prev.Slots) && slot.Name == prev.Slots[s].Name
			if shared := s < len(prev.Slots) && same(slot.Name, prev.Slots[s].Name); shared != equal {
				t.Errorf("record %d slot %d (%q): equal to the previous record's = %v, shared = %v", i, s, slot.Name, equal, shared)
			}
		}
	}
	if !bytes.Equal(reencode(t, rep.Records), img) {
		t.Fatal("the records decoded with shared names do not re-encode to the image")
	}
}

// TestTornTail checks that every strict prefix of the final record
// replays to the first record with the tail truncated at it.
func TestTornTail(t *testing.T) {
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	img1 := appendRecords(t, r1)
	img := appendRecords(t, r1, r2)

	for cut := len(img1) + 1; cut < len(img); cut++ {
		rep, err := DecodeAll(img[:cut])
		if err != nil {
			t.Fatalf("cut %d: DecodeAll: %v", cut, err)
		}
		if len(rep.Records) != 1 || rep.Records[0].Version != 1 {
			t.Fatalf("cut %d: replayed %d records, want just version 1", cut, len(rep.Records))
		}
		if rep.Good != len(img1) {
			t.Fatalf("cut %d: Good = %d, want %d", cut, rep.Good, len(img1))
		}
		if rep.TailErr == nil {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if rep.Truncated != cut-len(img1) {
			t.Fatalf("cut %d: Truncated = %d, want %d", cut, rep.Truncated, cut-len(img1))
		}
	}
}

// TestBitFlips checks that any single-bit flip in the final record is
// caught (CRC or structural) and truncates back to the first record.
func TestBitFlips(t *testing.T) {
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	img1 := appendRecords(t, r1)
	img := appendRecords(t, r1, r2)

	// Every 7th bit keeps the test fast while covering frame, CRC, and
	// payload positions.
	for bit := len(img1) * 8; bit < len(img)*8; bit += 7 {
		mut := append([]byte(nil), img...)
		mut[bit/8] ^= 1 << (bit % 8)
		rep, err := DecodeAll(mut)
		if err != nil {
			t.Fatalf("bit %d: DecodeAll: %v", bit, err)
		}
		if len(rep.Records) != 1 || rep.Records[0].Version != 1 {
			t.Fatalf("bit %d: corrupt record replayed (%d records)", bit, len(rep.Records))
		}
		if rep.TailErr == nil {
			t.Fatalf("bit %d: corruption not reported", bit)
		}
		if rep.Good != len(img1) {
			t.Fatalf("bit %d: Good = %d, want %d", bit, rep.Good, len(img1))
		}
	}
}

// TestMidJournalCorruptionStopsReplay checks that damage to an interior
// record abandons everything from it on — replay never skips over a bad
// record to a later intact one.
func TestMidJournalCorruptionStopsReplay(t *testing.T) {
	r1, r2, r3 := testRecord(t, 1), testRecord(t, 2), testRecord(t, 3)
	img1 := appendRecords(t, r1)
	img := appendRecords(t, r1, r2, r3)

	mut := append([]byte(nil), img...)
	mut[len(img1)+frameOverhead+4] ^= 0x80 // inside record 2's payload
	rep, err := DecodeAll(mut)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(rep.Records))
	}
	if rep.Good != len(img1) {
		t.Fatalf("Good = %d, want %d", rep.Good, len(img1))
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := DecodeAll(nil); err == nil {
		t.Fatal("empty image accepted")
	}
	if _, err := DecodeAll([]byte("TB")); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := DecodeAll([]byte("XXXX\x01\x00")); err == nil {
		t.Fatal("foreign magic accepted")
	}
	bad := AppendHeader(nil)
	binary.LittleEndian.PutUint16(bad[4:], 99)
	if _, err := DecodeAll(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestImplausibleLengthRejected checks the hardening: a frame declaring
// a giant payload is abandoned as tail damage without allocating it.
func TestImplausibleLengthRejected(t *testing.T) {
	img := AppendHeader(nil)
	img = binary.LittleEndian.AppendUint32(img, 1<<30) // absurd payloadLen
	img = binary.LittleEndian.AppendUint32(img, 0)
	img = append(img, make([]byte, 64)...)
	rep, err := DecodeAll(img)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(rep.Records) != 0 || rep.TailErr == nil {
		t.Fatalf("implausible frame not abandoned: %d records, tail %v", len(rep.Records), rep.TailErr)
	}
	if !strings.Contains(rep.TailErr.Error(), "implausible") {
		t.Fatalf("tail error %q does not name the implausible length", rep.TailErr)
	}
}

func TestWriterOnMemStore(t *testing.T) {
	st := NewMemStore()
	w := NewWriter(st)
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	if err := w.Append(r1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append(r2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if w.Records() != 2 {
		t.Fatalf("Records = %d, want 2", w.Records())
	}
	img, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if want := appendRecords(t, r1, r2); !bytes.Equal(img, want) {
		t.Fatal("writer image differs from direct encoding")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(testRecord(t, 3)); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestMemStoreTruncate(t *testing.T) {
	st := NewMemStoreFrom(appendRecords(t, testRecord(t, 1), testRecord(t, 2)))
	rep, err := DecodeAll(mustLoad(t, st))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	one := appendRecords(t, testRecord(t, 1))
	if err := st.Truncate(int64(len(one))); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if st.Len() != len(one) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(one))
	}
	if err := st.Truncate(int64(st.Len() + 1)); err == nil {
		t.Fatal("truncate past end accepted")
	}
	_ = rep
}

func mustLoad(t *testing.T, s Store) []byte {
	t.Helper()
	b, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return b
}

// TestSlotNameTooLong checks the encode-side bound.
func TestSlotNameTooLong(t *testing.T) {
	r := &EpochRecord{Version: 1, Slots: []SlotConfig{{Name: strings.Repeat("x", 0x10000), UtilDen: 1}}}
	if _, err := AppendRecord(nil, r, nil); err == nil {
		t.Fatal("oversized slot name accepted")
	}
}

// TestFoldEpochs pins the rollback-fold semantics: a record whose
// version does not exceed the current top pops everything it
// supersedes, so the fold is always strictly increasing.
func TestFoldEpochs(t *testing.T) {
	rec := func(v uint64) EpochRecord { return EpochRecord{Version: v} }
	versions := func(recs []EpochRecord) []uint64 {
		out := make([]uint64, len(recs))
		for i, r := range recs {
			out[i] = r.Version
		}
		return out
	}
	got := versions(FoldEpochs([]EpochRecord{rec(1), rec(2), rec(3), rec(2), rec(4)}))
	want := []uint64{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("folded to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("folded to %v, want %v", got, want)
		}
	}
	if out := FoldEpochs(nil); len(out) != 0 {
		t.Fatalf("folding nothing yielded %d records", len(out))
	}
	// A full revert to the first epoch leaves exactly that epoch.
	if got := versions(FoldEpochs([]EpochRecord{rec(5), rec(6), rec(7), rec(5)})); len(got) != 1 || got[0] != 5 {
		t.Fatalf("full revert folded to %v, want [5]", got)
	}
}

// denseImage journals n epochs of a dense host — 16 cores, 192 VMs of
// 1/16, three latency goals changing per step, replanned incrementally —
// the way a controller writes them: a full record, then deltas.
func denseImage(tb testing.TB, n int) []byte {
	tb.Helper()
	goals := []int64{5_000_000, 10_000_000, 20_000_000}
	opts := planner.Options{Cores: 16, Slices: planner.NewSliceCache(0)}
	specs := make([]planner.VCPUSpec, 192)
	slots := make([]SlotConfig, 192)
	for i := range specs {
		specs[i] = planner.VCPUSpec{Name: fmt.Sprintf("vm%d", i), Util: planner.Util{Num: 1, Den: 16}, LatencyGoal: goals[i%3], Capped: true}
		slots[i] = SlotConfig{Name: specs[i].Name, UtilNum: 1, UtilDen: 16, LatencyGoal: goals[i%3], Capped: true, Active: true}
	}
	res, err := planner.Plan(specs, opts)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	img := AppendHeader(nil)
	var prev *EpochRecord
	var prevTbl *table.Table
	for v := uint64(1); v <= uint64(n); v++ {
		res.Table.Generation = v
		rec := &EpochRecord{Version: v, Slots: slices.Clone(slots), Guarantees: res.Guarantees}
		if prev == nil {
			rec.TableBytes, err = res.Table.AppendEncodedCompact(nil)
		} else {
			rec.Base = prev.Version
			rec.TableDelta, err = res.Table.AppendEncodedDelta(nil, prevTbl)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if img, err = AppendRecord(img, rec, prev); err != nil {
			tb.Fatal(err)
		}
		prev, prevTbl = rec, res.Table
		last := &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
		specs = slices.Clone(specs)
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(specs))
			specs[i].LatencyGoal = goals[rng.Intn(len(goals))]
			slots[i].LatencyGoal = specs[i].LatencyGoal
		}
		if res, err = planner.PlanIncremental(specs, opts, last); err != nil {
			tb.Fatal(err)
		}
	}
	return img
}

// recordAt returns the framed record that starts image offset off.
func recordAt(tb testing.TB, img []byte, off int) []byte {
	tb.Helper()
	n, err := frameLen(img[off:])
	if err != nil {
		tb.Fatal(err)
	}
	return img[off : off+n]
}

// reframed is img with the record at off rewritten by edit, its CRC
// recomputed, so that only the payload's structure can refuse it.
func reframed(tb testing.TB, img []byte, off int, edit func(payload []byte)) []byte {
	tb.Helper()
	out := bytes.Clone(img)
	rec := recordAt(tb, out, off)
	edit(rec[frameOverhead:])
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[frameOverhead:], castagnoli))
	return out
}

// badDeltaImages are the first two records of a dense image with the
// second, a delta, damaged behind a valid CRC: naming a base that is not
// the record before it, and naming a slot past the record's slot count.
func badDeltaImages(tb testing.TB, dense []byte) map[string][]byte {
	tb.Helper()
	second := HeaderSize + len(recordAt(tb, dense, HeaderSize))
	two := dense[:second+len(recordAt(tb, dense, second))]
	const baseAt, countAt, firstIndexAt = 1 + 8, 1 + 8 + 8, 1 + 8 + 8 + 4 + 4
	return map[string][]byte{
		"a delta whose base is not the record before it": reframed(tb, two, second, func(p []byte) {
			binary.LittleEndian.PutUint64(p[baseAt:], 99)
		}),
		"a delta listing a slot past the slot count": reframed(tb, two, second, func(p []byte) {
			binary.LittleEndian.PutUint32(p[firstIndexAt:], binary.LittleEndian.Uint32(p[countAt:]))
		}),
	}
}

// corePastCountImage is the first two records of a dense image with the
// second's table delta rewritten to list one empty core at the table's
// core count: a record the journal frames as intact — it does not parse
// tables — and whose table the table decoder must refuse.
func corePastCountImage(tb testing.TB, dense []byte) []byte {
	tb.Helper()
	rep, err := DecodeAll(dense)
	if err != nil || len(rep.Records) < 2 {
		tb.Fatalf("the dense image replays %d records (%v), want 2", len(rep.Records), err)
	}
	base, rec := &rep.Records[0], rep.Records[1]
	tbl, err := table.DecodeBytes(base.TableBytes)
	if err != nil {
		tb.Fatal(err)
	}
	tbl.Generation = rec.Version
	// A table's delta against itself lists nothing and ends with its
	// changed-core count.
	delta, err := tbl.AppendEncodedDelta(nil, tbl)
	if err != nil {
		tb.Fatal(err)
	}
	le := binary.LittleEndian
	le.PutUint32(delta[len(delta)-4:], 1)
	delta = le.AppendUint32(delta, uint32(tbl.NumCores()))
	rec.TableDelta = append(delta, make([]byte, 20)...) // core 0, no allocations, no slice index
	img := AppendHeader(nil)
	if img, err = AppendRecord(img, base, nil); err != nil {
		tb.Fatal(err)
	}
	if img, err = AppendRecord(img, &rec, base); err != nil {
		tb.Fatal(err)
	}
	return img
}

// TestDeltaRecordsRoundTrip: a dense image of a full record and deltas
// replays whole — every record with its whole population, exactly one
// of TableBytes and TableDelta set, the deltas a fraction of the full
// record — re-encodes to itself, and decodes its tables as a chain.
func TestDeltaRecordsRoundTrip(t *testing.T) {
	img := denseImage(t, 8)
	rep, err := DecodeAll(img)
	if err != nil || rep.TailErr != nil || len(rep.Records) != 8 {
		t.Fatalf("DecodeAll: %v, tail %v, %d records", err, rep.TailErr, len(rep.Records))
	}
	var encs [][]byte
	for i := range rep.Records {
		rec := &rep.Records[i]
		if len(rec.Slots) != 192 {
			t.Fatalf("record %d carries %d slots, want 192", i, len(rec.Slots))
		}
		if (rec.TableBytes == nil) == (rec.TableDelta == nil) || (i == 0) != (rec.TableDelta == nil) {
			t.Fatalf("record %d: table bytes %d, delta %d: want the first full and the rest deltas", i, len(rec.TableBytes), len(rec.TableDelta))
		}
		encs = append(encs, rec.TableEncoding())
	}
	tables, err := table.DecodeChain(encs, len(encs))
	if err != nil {
		t.Fatal(err)
	}
	for i, tbl := range tables {
		if tbl.Generation != rep.Records[i].Version {
			t.Fatalf("record %d decodes to generation %d", i, tbl.Generation)
		}
	}
	full := len(recordAt(t, img, HeaderSize))
	t.Logf("a full record is %d bytes; the seven deltas average %d", full, (len(img)-HeaderSize-full)/7)
	if 4*(len(img)-HeaderSize-full)/7 > full {
		t.Fatalf("deltas average %d bytes against a %d-byte full record", (len(img)-HeaderSize-full)/7, full)
	}
	if !bytes.Equal(reencode(t, rep.Records), img) {
		t.Fatal("the replayed records do not re-encode to the image")
	}
}

// TestDecodeAllRefusesBadDeltas: a delta record behind a valid CRC that
// cannot be applied to the record before it is tail damage: replay keeps
// the records before it and truncates there.
func TestDecodeAllRefusesBadDeltas(t *testing.T) {
	dense := denseImage(t, 2)
	good := HeaderSize + len(recordAt(t, dense, HeaderSize))
	for name, img := range badDeltaImages(t, dense) {
		rep, err := DecodeAll(img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Records) != 1 || rep.Good != good || rep.TailErr == nil {
			t.Fatalf("%s: replayed %d records to %d (tail %v), want 1 to %d with the delta cut", name, len(rep.Records), rep.Good, rep.TailErr, good)
		}
	}
	// A delta as the first record has nothing to be a delta of.
	second := dense[good:]
	rep, err := DecodeAll(append(AppendHeader(nil), second...))
	if err != nil || len(rep.Records) != 0 || rep.TailErr == nil {
		t.Fatalf("a leading delta replayed %d records (tail %v, %v)", len(rep.Records), rep.TailErr, err)
	}
	// A table delta naming a core past the table replays intact, and its
	// chain is refused where the tables are decoded.
	rep, err = DecodeAll(corePastCountImage(t, dense))
	if err != nil || len(rep.Records) != 2 || rep.TailErr != nil {
		t.Fatalf("a delta naming a core past the table replayed %d records (tail %v, %v), want 2", len(rep.Records), rep.TailErr, err)
	}
	if _, err := table.DecodeChain([][]byte{rep.Records[0].TableEncoding(), rep.Records[1].TableEncoding()}, 1); err == nil {
		t.Fatal("a table delta naming a core past the table decoded")
	}
}

// TestWriterDeltaNeedsItsBase: a writer appends a delta only against the
// record it appended last, and after a failed append against none.
func TestWriterDeltaNeedsItsBase(t *testing.T) {
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	tbl, err := table.DecodeBytes(r1.TableBytes)
	if err != nil {
		t.Fatal(err)
	}
	delta := func(r *EpochRecord, base uint64) *EpochRecord {
		d := *r
		d.Base, d.TableBytes = base, nil
		if d.TableDelta, err = tbl.AppendEncodedDelta(nil, tbl); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	st := NewMemStore()
	w := NewWriter(st)
	if _, ok := w.Last(); ok {
		t.Fatal("a fresh writer names a last record")
	}
	if err := w.Append(delta(r2, 1)); err == nil {
		t.Fatal("a fresh writer appended a delta")
	}
	if err := w.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(delta(r2, 7)); err == nil {
		t.Fatal("a delta against a record the writer did not append last was accepted")
	}
	if err := w.Append(delta(r2, 1)); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Last(); !ok || v != 2 {
		t.Fatalf("Last = %d, %v after appending epoch 2", v, ok)
	}
	rep, err := DecodeAll(mustLoad(t, st))
	if err != nil || rep.TailErr != nil || len(rep.Records) != 2 || rep.Records[1].Base != 1 {
		t.Fatalf("the writer's image replays %d records (tail %v, %v)", len(rep.Records), rep.TailErr, err)
	}
	st.Close()
	if err := w.Append(testRecord(t, 3)); err == nil {
		t.Fatal("append to a closed store accepted")
	}
	if _, ok := w.Last(); ok {
		t.Fatal("a writer names a last record after a failed append")
	}
}
