package journal

import (
	"fmt"
	"testing"

	"tableau/internal/table"
)

// denseRecord is shaped like one epoch of the benchmark's dense host:
// 192 slots and guarantees and a 93 896-byte table encoding, about
// 107 KB framed. The journal never looks inside the table bytes.
func denseRecord() *EpochRecord {
	rec := &EpochRecord{Version: 1, TableBytes: make([]byte, 93_896)}
	for i := 0; i < 192; i++ {
		rec.Slots = append(rec.Slots, SlotConfig{
			Name: fmt.Sprintf("vm%d", i), UtilNum: 1, UtilDen: 16, LatencyGoal: 10_000_000, Capped: true, Active: i%8 != 0,
		})
		rec.Guarantees = append(rec.Guarantees, table.Guarantee{VCPU: i, Service: 625_000, WindowLen: 10_000_000, MaxBlackout: 9_375_000})
	}
	for i := range rec.TableBytes {
		rec.TableBytes[i] = byte(i * 131)
	}
	return rec
}

// BenchmarkAppendDense is one journaled commit of the dense host, frame
// and store: 107 KB records through a Writer into a MemStore that is
// replaced once it holds 10 MB, the journal length between the
// benchmark's rotations. What an append costs must not depend on how
// much the store already holds.
func BenchmarkAppendDense(b *testing.B) {
	const rotateAt = 10 << 20
	rec := denseRecord()
	store := NewMemStore()
	w := NewWriter(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if store.Len() >= rotateAt {
			store = NewMemStore()
			w = NewWriter(store)
		}
		rec.Version++
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(store.Len()-HeaderSize) / w.Records())
}
