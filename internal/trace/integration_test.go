package trace_test

import (
	"bytes"
	"testing"

	"tableau/internal/sim"
	"tableau/internal/trace"
	"tableau/internal/vmm"
)

// rr is a minimal round-robin scheduler: enough machinery to drive a
// machine through dispatches, blocks, wakeups, and preemptions so the
// trace hooks in vmm fire.
type rr struct {
	m    *vmm.Machine
	next int
}

func (s *rr) Name() string          { return "rr-test" }
func (s *rr) Attach(m *vmm.Machine) { s.m = m }
func (s *rr) OnWake(v *vmm.VCPU, now int64) {
	if v.LastCPU >= 0 {
		s.m.Kick(v.LastCPU)
	} else {
		s.m.Kick(0)
	}
}
func (s *rr) OnBlock(v *vmm.VCPU, now int64) {}

func (s *rr) PickNext(cpu *vmm.PCPU, now int64) vmm.Decision {
	n := len(s.m.VCPUs)
	for i := 0; i < n; i++ {
		v := s.m.VCPUs[(s.next+i)%n]
		if v.State == vmm.Runnable || (v.State == vmm.Running && v.CurrentCPU == cpu.ID) {
			s.next = (v.ID + 1) % n
			return vmm.Decision{VCPU: v, Until: now + 1_000_000} // 1 ms slice
		}
	}
	return vmm.Decision{Until: vmm.NoTimer}
}

// burstBlock alternates compute bursts with blocking I/O.
func burstBlock(compute, block int64) vmm.Program {
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		if v.Wakeups%2 == 0 {
			return vmm.Compute(compute)
		}
		return vmm.Block(block)
	})
}

func tracedRun(t *testing.T, ringSize int) (*trace.Tracer, *vmm.Machine) {
	t.Helper()
	tr := trace.New(ringSize)
	m := vmm.New(sim.New(7), 2, &rr{}, vmm.NoOverheads())
	m.AddVCPU("a", burstBlock(300_000, 200_000), 256, false)
	m.AddVCPU("b", burstBlock(500_000, 100_000), 256, false)
	m.AddVCPU("c", vmm.ProgramFunc(func(*vmm.Machine, *vmm.VCPU, int64) vmm.Action {
		return vmm.Compute(2_000_000)
	}), 256, false)
	m.SetTracer(tr)
	m.Start()
	m.Run(50_000_000)
	tr.FlushResidency(m.Now())
	return tr, m
}

// TestMachineEmitsCoherentTrace runs a small machine traced end to end
// and checks the stream is coherent: context switches and runstate
// transitions appear, per-ring records are in emission order, and the
// offline analysis of the encoded dump agrees with the live metrics
// field by field.
func TestMachineEmitsCoherentTrace(t *testing.T) {
	tr, m := tracedRun(t, 1<<15)
	recs := tr.Merged()
	if len(recs) == 0 {
		t.Fatal("traced run produced no records")
	}
	var sawCtx, sawRun bool
	for i, r := range recs {
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("merged stream out of order at %d", i)
		}
		switch r.Type {
		case trace.EvContextSwitch:
			sawCtx = true
		case trace.EvRunstateChange:
			sawRun = true
		}
	}
	if !sawCtx || !sawRun {
		t.Fatalf("missing event kinds: ctx=%v runstate=%v", sawCtx, sawRun)
	}

	live := tr.Metrics()
	if live.ContextSwitches == 0 {
		t.Error("live metrics saw no context switches")
	}
	// Residency must account the whole run for every vCPU.
	for v := range live.VMs {
		vm := &live.VMs[v]
		total := vm.RunNs + vm.RunnableNs + vm.BlockedNs
		if total != m.Now() {
			t.Errorf("vCPU %d residency covers %d ns of a %d ns run", v, total, m.Now())
		}
		if vm.SchedLatency.Count() == 0 {
			t.Errorf("vCPU %d has no latency samples", v)
		}
	}
	// The machine's own run-time accounting and the trace-derived one
	// must agree exactly: both observe the same dispatch instants.
	for v, vc := range m.VCPUs {
		if got := live.VMs[v].RunNs; got != vc.RunTime {
			t.Errorf("vCPU %d: trace RunNs %d != machine RunTime %d", v, got, vc.RunTime)
		}
	}

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lost() != 0 {
		t.Fatalf("rings overflowed (%d lost) — grow the test ring", d.Lost())
	}
	off := trace.Analyze(d)
	if off.ContextSwitches != live.ContextSwitches || off.TableSwitches != live.TableSwitches ||
		off.IPIsSent != live.IPIsSent || off.IPIsDropped != live.IPIsDropped {
		t.Errorf("offline counters diverge from live: off %+v live %+v", off, live)
	}
	for v := range live.VMs {
		lv, ov := &live.VMs[v], &off.VMs[v]
		if lv.RunNs != ov.RunNs || lv.RunnableNs != ov.RunnableNs || lv.BlockedNs != ov.BlockedNs ||
			lv.ContextSwitches != ov.ContextSwitches || lv.Wakeups != ov.Wakeups {
			t.Errorf("vCPU %d: offline %+v != live %+v", v, ov, lv)
		}
		if lv.SchedLatency.Count() != ov.SchedLatency.Count() ||
			lv.SchedLatency.Max() != ov.SchedLatency.Max() ||
			lv.SchedLatency.Quantile(0.99) != ov.SchedLatency.Quantile(0.99) {
			t.Errorf("vCPU %d latency histograms diverge", v)
		}
	}
}

// TestTracedRunsAreDeterministic runs the same seeded machine twice and
// requires byte-identical encoded traces.
func TestTracedRunsAreDeterministic(t *testing.T) {
	tr1, _ := tracedRun(t, 1<<12)
	tr2, _ := tracedRun(t, 1<<12)
	var b1, b2 bytes.Buffer
	if err := tr1.Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical seeded runs produced different trace bytes")
	}
}

// BenchmarkTracedMachine measures the sim hot path with tracing on and
// off; the delta is the tracer's overhead.
// The horizon is long relative to machine construction and ring
// allocation so the per-event emit cost, not setup, is what's compared.
func BenchmarkTracedMachine(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := vmm.New(sim.New(7), 2, &rr{}, vmm.NoOverheads())
			m.AddVCPU("a", burstBlock(30_000, 20_000), 256, false)
			m.AddVCPU("b", burstBlock(50_000, 10_000), 256, false)
			if traced {
				m.SetTracer(trace.New(1 << 12))
			}
			m.Start()
			m.Run(500_000_000)
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}
