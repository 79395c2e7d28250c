package periodic

import (
	"fmt"
	"testing"
)

func benchSet(n int) TaskSet {
	var ts TaskSet
	periods := []int64{10_000_000, 20_000_000, 25_000_000, 50_000_000}
	for i := 0; i < n; i++ {
		p := periods[i%len(periods)]
		ts = append(ts, Task{Name: fmt.Sprintf("t%d", i), Group: i, WCET: p / int64(n) / 2, Deadline: p, Period: p})
	}
	return ts
}

func BenchmarkEDFSchedulable(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		ts := benchSet(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ts.EDFSchedulable() {
					b.Fatal("unexpectedly unschedulable")
				}
			}
		})
	}
}

func BenchmarkSimulateEDF(b *testing.B) {
	ts := benchSet(8)
	h, err := ts.Hyperperiod()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateEDF(ts, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxFeasibleCEqualsD(b *testing.B) {
	ts := benchSet(4)
	for i := 0; i < b.N; i++ {
		ts.MaxFeasibleCEqualsD(10_000_000, 10_000_000)
	}
}

func BenchmarkDBF(b *testing.B) {
	ts := benchSet(32)
	for i := 0; i < b.N; i++ {
		ts.DBF(int64(i%100) * 1_000_000)
	}
}

// TestDBFAllocatesNothing: the planner evaluates the demand bound
// function in its innermost placement loop.
func TestDBFAllocatesNothing(t *testing.T) {
	ts := benchSet(32)
	i := int64(0)
	if avg := testing.AllocsPerRun(2000, func() { ts.DBF(i % 100 * 1_000_000); i++ }); avg != 0 {
		t.Errorf("DBF allocates %v objects per call, want 0", avg)
	}
}
