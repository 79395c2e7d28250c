package planner

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"tableau/internal/table"
)

// sliceFiguresDigest is the SHA-256 of "name SliceCount EncodedSize"
// lines over every pinned population the planner accepts, as they read
// when the planner built each table's slice index and these figures
// counted its entries.
const sliceFiguresDigest = "c7dd02fd97a62b67334f4b6a89a9282a44229dee31975721444fdac055454828"

// TestSliceCountsMatchABuiltIndex: SliceCount and EncodedSize, the
// figures the Fig. 4 memory experiment reports, are arithmetic over a
// planned table. Over every pinned planner population they count the
// entries of the index an installer builds for it, and they read as
// they did when the planner built that index itself.
func TestSliceCountsMatchABuiltIndex(t *testing.T) {
	h := sha256.New()
	tables := 0
	eachDigestCase(false, false, func(name string, res *Result, err error) {
		if err != nil {
			return
		}
		// Check holds each core's entries to the count SliceCount sums.
		tbl := res.Table
		if err := table.NewIndex(tbl, nil, nil).Check(tbl); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got, want := tbl.EncodedSize(), tbl.EncodedSizeCompact()+4*tbl.SliceCount(); got != want {
			t.Errorf("%s: EncodedSize = %d, want %d", name, got, want)
		}
		fmt.Fprintf(h, "%s %d %d\n", name, tbl.SliceCount(), tbl.EncodedSize())
		tables++
	})
	if tables != 590 {
		t.Fatalf("%d populations planned, want 590", tables)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sliceFiguresDigest {
		t.Fatalf("slice figures digest %s, want %s: Fig. 4 moved", got, sliceFiguresDigest)
	}
}
