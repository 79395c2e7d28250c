package table

import "testing"

// lookupTable is one core carrying four equal reservations, indexed.
func lookupTable(tb testing.TB) *Table {
	tb.Helper()
	tbl := &Table{Len: 11_411_400, VCPUs: make([]VCPUInfo, 4)}
	var allocs []Alloc
	for i := int64(0); i < 4; i++ {
		allocs = append(allocs, Alloc{Start: i * 2_852_850, End: (i + 1) * 2_852_850, VCPU: int(i)})
	}
	tbl.Cores = []CoreTable{{Core: 0, Allocs: allocs}}
	if err := tbl.Validate(); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.BuildSlices(0); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

func BenchmarkLookup(b *testing.B) {
	tbl := lookupTable(b)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		v, _, _ := tbl.Lookup(0, int64(i)*7919)
		sink += v
	}
	_ = sink
}

// TestLookupAllocatesNothing: the dispatcher calls Lookup on every
// scheduling decision, so it may not touch the heap.
func TestLookupAllocatesNothing(t *testing.T) {
	tbl := lookupTable(t)
	var now int64
	if avg := testing.AllocsPerRun(2000, func() { tbl.Lookup(0, now); now += 7919 }); avg != 0 {
		t.Errorf("Lookup allocates %v objects per call, want 0", avg)
	}
}
