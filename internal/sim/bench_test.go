package sim

import "testing"

// BenchmarkEventScheduleAndRun is the steady-state hot path of every
// simulation: schedule, fire, recycle. With the free list it must run
// at ~0 allocs/op.
func BenchmarkEventScheduleAndRun(b *testing.B) {
	e := New(1)
	var cnt int
	fn := func(int64) { cnt++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+int64(i%64)+1, fn)
		if i%64 == 63 {
			e.RunUntil(e.Now() + 128)
		}
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel path (timer
// re-arming, as vmm's Kick and chargeAsync do constantly): canceled
// events must also recycle without allocating.
func BenchmarkScheduleCancel(b *testing.B) {
	e := New(1)
	fn := func(int64) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.At(e.Now()+10, fn)
		h.Cancel()
		if i%64 == 63 {
			e.RunUntil(e.Now() + 1)
		}
	}
	e.RunUntil(e.Now() + 100)
}

// TestSteadyStateAllocatesNothing is the allocation contract as a test:
// once the free list holds the peak event population, schedule+fire and
// schedule+cancel (timer re-arming, as vmm's Kick and chargeAsync do
// constantly) both recycle events without touching the heap.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	e := New(1)
	fn := func(int64) {}
	i := 0
	run := func() {
		e.At(e.Now()+int64(i%8)+1, fn)
		if i%8 == 7 {
			e.RunUntil(e.Now() + 16)
		}
		i++
	}
	cancel := func() {
		e.At(e.Now()+10, fn).Cancel()
		if i%64 == 63 {
			e.RunUntil(e.Now() + 1)
		}
		i++
	}
	for w := 0; w < 128; w++ { // warm the free list and the heap's backing array
		run()
		cancel()
	}
	if avg := testing.AllocsPerRun(2000, run); avg != 0 {
		t.Errorf("schedule+run allocates %v objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, cancel); avg != 0 {
		t.Errorf("schedule+cancel allocates %v objects per event, want 0", avg)
	}
}
