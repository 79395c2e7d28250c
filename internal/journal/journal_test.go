package journal

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

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
		img, err = AppendRecord(img, r)
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
		// The compact encoding omits the slice index and Decode rebuilds
		// it, so re-encoding the decoded table is byte-identical — the
		// property the recovery-equivalence oracle rests on.
		re, err := tbl.AppendEncodedCompact(nil)
		if err != nil {
			t.Fatalf("record %d: re-encoding: %v", i, err)
		}
		if !bytes.Equal(re, want.TableBytes) {
			t.Errorf("record %d: re-encoded table differs from journaled bytes", i)
		}
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
	if _, err := AppendRecord(nil, r); err == nil {
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
