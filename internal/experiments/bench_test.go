package experiments

import (
	"testing"

	"tableau/internal/workload"
)

// BenchmarkScenario measures the binary tracer's cost on the real
// evaluation hot path: the Fig. 5 scenario (full density, calibrated
// overhead model, CPU background) with tracing off (a nil tracer) and
// on. The traced-vs-untraced delta on this workload is the overhead
// number DESIGN.md §7 quotes.
func BenchmarkScenario(b *testing.B) {
	run := func(b *testing.B, records int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probe := &workload.Probe{Chunk: 10_000}
			sc, err := Build(ScenarioConfig{
				Scheduler:    Tableau,
				Capped:       true,
				Background:   BGCPU,
				Seed:         42,
				TraceRecords: records,
			}, probe.Program())
			if err != nil {
				b.Fatal(err)
			}
			sc.M.Start()
			sc.M.Run(500_000_000)
			sc.M.Stop()
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, 0) })
	b.Run("traced", func(b *testing.B) { run(b, 1<<12) })
}
