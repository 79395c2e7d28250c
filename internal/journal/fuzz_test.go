package journal

// The journal decoder consumes whatever a crash left on disk, so it
// must hold up against truncated, bit-flipped, and adversarial images:
// never panic, never over-allocate on a hostile header, and never
// return a Good offset that does not bound the intact records. The
// corpus seeds are canonical journal images — realistic encodings whose
// mutations explore the actual record structure, deltas among them. Run
// with `make fuzz` (or `go test -fuzz FuzzJournalDecode`).

import (
	"bytes"
	"testing"

	"tableau/internal/table"
)

// corpusImages builds the seed images from hand-built records (no
// planner dependency, so seeds stay stable as the planner evolves).
func corpusImages(tb testing.TB) [][]byte {
	recs := []*EpochRecord{syntheticRecord(1), syntheticRecord(2)}
	var out [][]byte
	img := AppendHeader(nil)
	out = append(out, append([]byte(nil), img...)) // header only
	for _, r := range recs {
		var err error
		img, err = AppendRecord(img, r, nil)
		if err != nil {
			tb.Fatalf("AppendRecord: %v", err)
		}
		out = append(out, append([]byte(nil), img...))
	}
	return out
}

// syntheticRecord is a hand-built record for fuzz seeding (no planner
// dependency, so seeds stay stable as the planner evolves).
func syntheticRecord(version uint64) *EpochRecord {
	return &EpochRecord{
		Version: version,
		Slots: []SlotConfig{
			{Name: "a", UtilNum: 1, UtilDen: 4, LatencyGoal: 30_000_000, Active: true},
			{Name: "b", UtilNum: 1, UtilDen: 8, LatencyGoal: 10_000_000, Capped: true},
		},
		FailedCores: []int{3},
		TableBytes:  []byte("TBLU-not-actually-a-table"),
	}
}

func FuzzJournalDecode(f *testing.F) {
	seeds := corpusImages(f)
	// A dense image of a full record and seven deltas, two deltas behind
	// valid CRCs that cannot apply to the record before them, and one
	// whose table delta names a core past the table's count.
	dense := denseImage(f, 8)
	seeds = append(seeds, dense, corePastCountImage(f, dense))
	for _, img := range badDeltaImages(f, dense) {
		seeds = append(seeds, img)
	}
	for _, img := range seeds {
		f.Add(img)
		if len(img) > HeaderSize {
			f.Add(img[:HeaderSize+(len(img)-HeaderSize)/2]) // torn tail
			flipped := append([]byte(nil), img...)
			flipped[len(img)/2] ^= 0x20
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeAll(data)
		if err != nil {
			return // rejected header, fine — just must not panic
		}
		// Good must bound the intact prefix and the accounting must add up.
		if rep.Good < HeaderSize || rep.Good > len(data) {
			t.Fatalf("Good = %d out of range [%d,%d]", rep.Good, HeaderSize, len(data))
		}
		if rep.Truncated != len(data)-rep.Good {
			t.Fatalf("Truncated = %d, want %d", rep.Truncated, len(data)-rep.Good)
		}
		if rep.Truncated > 0 && rep.TailErr == nil {
			t.Fatal("truncated bytes without a tail error")
		}
		// The intact prefix must re-decode to the same records: recovery
		// truncates to Good and replays again, so the two views must agree.
		again, err := DecodeAll(data[:rep.Good])
		if err != nil {
			t.Fatalf("re-decode of intact prefix failed: %v", err)
		}
		if again.TailErr != nil || len(again.Records) != len(rep.Records) {
			t.Fatalf("intact prefix replays differently: %d records (tail %v), want %d clean",
				len(again.Records), again.TailErr, len(rep.Records))
		}
		// Accepted records must re-encode into the exact bytes replayed —
		// the round-trip the re-commit path and recovery both rely on.
		if reenc := reencode(t, rep.Records); !bytes.Equal(reenc, data[:rep.Good]) {
			t.Fatal("re-encoded records differ from the intact prefix")
		}
		// The folded records' tables decode as a chain or are refused.
		var encs [][]byte
		for _, rec := range FoldEpochs(rep.Records) {
			encs = append(encs, rec.TableEncoding())
		}
		_, _ = table.DecodeChain(encs, len(encs))
	})
}

// reencode writes recs back as an image, each delta against the record
// before it.
func reencode(tb testing.TB, recs []EpochRecord) []byte {
	tb.Helper()
	img := AppendHeader(nil)
	for i := range recs {
		var base *EpochRecord
		if i > 0 {
			base = &recs[i-1]
		}
		var err error
		if img, err = AppendRecord(img, &recs[i], base); err != nil {
			tb.Fatalf("re-encode of record %d: %v", i, err)
		}
	}
	return img
}
