package stats

import "testing"

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000) * 977)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 100_000; i++ {
		h.Record(i * 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

// TestHistogramRecordAllocatesNothing: Record runs once per simulated
// request and per traced dispatch; into a bucket that already exists it
// may not touch the heap.
func TestHistogramRecordAllocatesNothing(t *testing.T) {
	h := NewHistogram()
	i := int64(0)
	for ; i < 1000; i++ { // create every bucket the measured values fall in
		h.Record(i * 977)
	}
	if avg := testing.AllocsPerRun(2000, func() { h.Record(i % 1000 * 977); i++ }); avg != 0 {
		t.Errorf("Record allocates %v objects per sample, want 0", avg)
	}
}
