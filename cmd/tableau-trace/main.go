// Command tableau-trace inspects binary trace dumps (TBTRACE1) written
// by tableau-sim, cmd/experiments, or any other embedder of
// internal/trace. It is the xentrace/xenalyze counterpart of this
// reproduction: `decode` prints records human-readably, `csv` exports
// them for plotting, and `summarize` derives the same metrics the live
// tracer maintains — scheduling-latency CDFs per vCPU, runstate
// residency, and protocol counters — so a dumped run summarizes to
// exactly the numbers the experiment reported.
//
// Usage:
//
//	tableau-trace summarize run.trace
//	tableau-trace decode [-cpu N] [-vcpu N] [-type runstate] [-from NS] [-to NS] [-limit N] run.trace
//	tableau-trace csv    [same filters] run.trace > records.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"tableau/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "summarize":
		cmdSummarize(os.Stdout, os.Args[2:])
	case "decode":
		cmdDecode(os.Stdout, os.Args[2:], false)
	case "csv":
		cmdDecode(os.Stdout, os.Args[2:], true)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tableau-trace summarize|decode|csv [flags] FILE")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tableau-trace:", err)
	os.Exit(1)
}

func load(path string) *trace.TraceData {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	d, err := trace.Decode(f)
	if err != nil {
		fatal(err)
	}
	return d
}

// filter is the record selection shared by decode and csv.
type filter struct {
	cpu, vcpu int
	typ       string
	from, to  int64
	limit     int
}

func (f *filter) register(fs *flag.FlagSet) {
	fs.IntVar(&f.cpu, "cpu", -1, "only records from this pCPU ring (-1 = all)")
	fs.IntVar(&f.vcpu, "vcpu", -1, "only records about this vCPU (-1 = all)")
	fs.StringVar(&f.typ, "type", "", "only this event type (runstate, ctxswitch, tableswitch, ipi, fault, l2pick, plannercall, migrate, planorigin)")
	fs.Int64Var(&f.from, "from", 0, "only records at or after this simulated ns")
	fs.Int64Var(&f.to, "to", 0, "only records before this simulated ns (0 = no bound)")
	fs.IntVar(&f.limit, "limit", 0, "stop after this many records (0 = all)")
}

func (f *filter) keep(r *trace.Record) bool {
	if f.cpu >= 0 && int(r.CPU) != f.cpu {
		return false
	}
	if f.vcpu >= 0 && int(r.VCPU) != f.vcpu {
		return false
	}
	if f.typ != "" && r.Type != trace.EventByName(f.typ) {
		return false
	}
	if r.Time < f.from {
		return false
	}
	if f.to > 0 && r.Time >= f.to {
		return false
	}
	return true
}

// describe renders a record's event-specific arguments.
func describe(r *trace.Record) string {
	switch r.Type {
	case trace.EvRunstateChange:
		return fmt.Sprintf("%s -> %s", trace.StateName(r.Arg0), trace.StateName(r.Arg1))
	case trace.EvContextSwitch:
		in, out := "idle", "idle"
		if r.VCPU >= 0 {
			in = fmt.Sprintf("v%d", r.VCPU)
		}
		if r.Arg0 >= 0 {
			out = fmt.Sprintf("v%d", r.Arg0)
		}
		return fmt.Sprintf("%s -> %s", out, in)
	case trace.EvTableSwitch:
		return fmt.Sprintf("adopt gen %d at cycle %d", r.Arg0, r.Arg1)
	case trace.EvIPI:
		switch r.Arg0 {
		case trace.IPIDropped:
			return "dropped"
		case trace.IPIDelayed:
			return fmt.Sprintf("delayed %d ns", r.Arg1)
		}
		return "sent"
	case trace.EvFaultInjected:
		return fmt.Sprintf("%s magnitude %d", trace.FaultKindName(r.Arg0), r.Arg1)
	case trace.EvL2Pick:
		return fmt.Sprintf("budget %d ns", r.Arg0)
	case trace.EvPlannerCall:
		return fmt.Sprintf("stage gen %d at cycle %d", r.Arg0, r.Arg1)
	case trace.EvMigrate:
		kind := "placement"
		if r.Arg1 == 1 {
			kind = "work-steal"
		}
		return fmt.Sprintf("%s from core %d", kind, r.Arg0)
	case trace.EvPlanOrigin:
		return fmt.Sprintf("%s, %d cores pinned", trace.PlanOriginName(r.Arg0), r.Arg1)
	}
	return fmt.Sprintf("arg0=%d arg1=%d", r.Arg0, r.Arg1)
}

func cpuLabel(c uint16) string {
	if c == trace.ControlCPU {
		return "ctl"
	}
	return strconv.Itoa(int(c))
}

func cmdDecode(out io.Writer, args []string, asCSV bool) {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	var f filter
	f.register(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	d := load(fs.Arg(0))
	recs := d.Merged()

	var w *csv.Writer
	if asCSV {
		w = csv.NewWriter(out)
		w.Write([]string{"time_ns", "seq", "cpu", "type", "vcpu", "arg0", "arg1"})
	}
	n := 0
	for i := range recs {
		r := &recs[i]
		if !f.keep(r) {
			continue
		}
		if asCSV {
			w.Write([]string{
				strconv.FormatInt(r.Time, 10),
				strconv.FormatUint(r.Seq, 10),
				cpuLabel(r.CPU),
				trace.EventName(r.Type),
				strconv.Itoa(int(r.VCPU)),
				strconv.FormatInt(r.Arg0, 10),
				strconv.FormatInt(r.Arg1, 10),
			})
		} else {
			vcpu := "-"
			if r.VCPU >= 0 {
				vcpu = fmt.Sprintf("v%d", r.VCPU)
			}
			fmt.Fprintf(out, "%12d  cpu%-3s %-11s %-5s %s\n",
				r.Time, cpuLabel(r.CPU), trace.EventName(r.Type), vcpu, describe(r))
		}
		n++
		if f.limit > 0 && n >= f.limit {
			break
		}
	}
	if asCSV {
		w.Flush()
		if err := w.Error(); err != nil {
			fatal(err)
		}
	}
}

func cmdSummarize(out io.Writer, args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	d := load(fs.Arg(0))
	m := trace.Analyze(d)

	records := 0
	for _, ring := range d.Rings {
		records += len(ring.Records)
	}
	fmt.Fprintf(out, "trace: %d pCPUs, %d vCPUs, %d records", d.NCPUs, d.NVCPUs, records)
	if lost := d.Lost(); lost > 0 {
		fmt.Fprintf(out, " (%d lost to ring overwrite — summary is partial)", lost)
	}
	fmt.Fprintf(out, ", end %.3f ms\n\n", float64(d.EndTime)/1e6)

	fmt.Fprintf(out, "counters: %d ctxswitch, %d tableswitch, %d plannercall, %d fault\n",
		m.ContextSwitches, m.TableSwitches, m.PlannerCalls, m.FaultsInjected)
	if n := m.PlansScratch + m.PlansCached + m.PlansIncremental; n > 0 {
		fmt.Fprintf(out, "plans:    %d scratch, %d cached, %d incremental, %d cores pinned\n",
			m.PlansScratch, m.PlansCached, m.PlansIncremental, m.PinnedCores)
	}
	fmt.Fprintf(out, "ipis:     %d sent, %d dropped, %d delayed\n\n",
		m.IPIsSent, m.IPIsDropped, m.IPIsDelayed)

	fmt.Fprintf(out, "%-5s %10s %10s %10s %10s %9s %10s %10s %10s %8s %8s\n",
		"vcpu", "lat_p50_ms", "lat_p90_ms", "lat_p99_ms", "lat_max_ms", "samples",
		"run_ms", "runnable_ms", "blocked_ms", "dispatch", "wakeups")
	for v := range m.VMs {
		vm := &m.VMs[v]
		lat := &vm.SchedLatency
		fmt.Fprintf(out, "%-5d %10.3f %10.3f %10.3f %10.3f %9d %10.3f %10.3f %10.3f %8d %8d\n",
			v,
			float64(lat.Quantile(0.50))/1e6,
			float64(lat.Quantile(0.90))/1e6,
			float64(lat.Quantile(0.99))/1e6,
			float64(lat.Max())/1e6,
			lat.Count(),
			float64(vm.RunNs)/1e6,
			float64(vm.RunnableNs)/1e6,
			float64(vm.BlockedNs)/1e6,
			vm.ContextSwitches,
			vm.Wakeups)
	}
}
