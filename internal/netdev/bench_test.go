package netdev

import "testing"

// sender returns one step of a sender that offers 1 KB per microsecond
// to a 10 Gbit/s device and waits for room when the ring is full.
func sender() func() {
	n := New(1_250_000_000, 262_144)
	now := int64(0)
	return func() {
		now += 1000
		if _, ok := n.TrySend(now, 1024); !ok {
			at, _ := n.RoomAt(now, 1024)
			now = at
			n.TrySend(now, 1024)
		}
	}
}

func BenchmarkTrySend(b *testing.B) {
	send := sender()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestTrySendAllocatesNothing: guests send on the simulation's hot path.
func TestTrySendAllocatesNothing(t *testing.T) {
	if avg := testing.AllocsPerRun(2000, sender()); avg != 0 {
		t.Errorf("TrySend allocates %v objects per send, want 0", avg)
	}
}
