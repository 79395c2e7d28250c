// Command tableau-plan is the planner CLI: it reads a VM population
// from a JSON file, generates a scheduling table with the full Tableau
// progression (partitioning, C=D splitting, cluster scheduling),
// verifies the per-VM guarantees, and prints the resulting schedule. It
// can also serialize the table in the binary format the dispatcher
// consumes (the paper's "compiled format" pushed via hypercall).
//
// Usage:
//
//	tableau-plan -config vms.json [-out table.bin] [-dump] [-peephole]
//	tableau-plan -decode table.bin
//
// Config format:
//
//	{
//	  "cores": 4,
//	  "vms": [
//	    {"name": "web0", "utilization": "1/4", "latency_goal_ms": 20, "capped": true},
//	    {"name": "batch0", "utilization": "0.5", "latency_goal_ms": 100}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tableau/internal/planner"
	"tableau/internal/table"
)

type configVM struct {
	Name          string  `json:"name"`
	Utilization   string  `json:"utilization"`
	LatencyGoalMS float64 `json:"latency_goal_ms"`
	Capped        bool    `json:"capped"`
}

type config struct {
	Cores int        `json:"cores"`
	VMs   []configVM `json:"vms"`
}

// parseUtil accepts "num/den" fractions or decimal strings.
func parseUtil(s string) (planner.Util, error) {
	s = strings.TrimSpace(s)
	if num, den, ok := strings.Cut(s, "/"); ok {
		n, err1 := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
		d, err2 := strconv.ParseInt(strings.TrimSpace(den), 10, 64)
		if err1 != nil || err2 != nil {
			return planner.Util{}, fmt.Errorf("bad fraction %q", s)
		}
		return planner.Util{Num: n, Den: d}, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return planner.Util{}, fmt.Errorf("bad utilization %q", s)
	}
	return planner.UtilFromPPM(int64(f * 1_000_000)), nil
}

func main() {
	configPath := flag.String("config", "", "JSON file describing the VM population")
	outPath := flag.String("out", "", "write the binary scheduling table here")
	dump := flag.Bool("dump", false, "print every allocation of the generated table")
	peephole := flag.Bool("peephole", false, "enable the context-switch reduction pass")
	decodePath := flag.String("decode", "", "decode and summarize a binary table instead of planning")
	flag.Parse()
	if *decodePath != "" {
		decode(*decodePath)
		return
	}
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	raw, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *configPath, err))
	}

	var specs []planner.VCPUSpec
	for _, vm := range cfg.VMs {
		u, err := parseUtil(vm.Utilization)
		if err != nil {
			fatal(fmt.Errorf("vm %q: %w", vm.Name, err))
		}
		specs = append(specs, planner.VCPUSpec{
			Name:        vm.Name,
			Util:        u,
			LatencyGoal: int64(vm.LatencyGoalMS * 1e6),
			Capped:      vm.Capped,
		})
	}

	res, err := planner.Plan(specs, planner.Options{Cores: cfg.Cores, Peephole: *peephole})
	if err != nil {
		fatal(err)
	}
	tbl := res.Table

	fmt.Printf("planned %d vCPUs on %d cores\n", len(specs), cfg.Cores)
	fmt.Printf("  stage:        %s\n", res.Stage)
	fmt.Printf("  table length: %.3f ms\n", float64(tbl.Len)/1e6)
	fmt.Printf("  table size:   %d bytes (%d slice entries)\n", tbl.EncodedSize(), tbl.SliceCount())
	if len(res.Splits) > 0 {
		for _, sp := range res.Splits {
			fmt.Printf("  split: %s into %d pieces on cores %v\n", specs[sp.VCPU].Name, sp.Pieces, sp.Cores)
		}
	}
	if len(res.ClusterCores) > 0 {
		fmt.Printf("  cluster-scheduled cores: %v\n", res.ClusterCores)
	}
	if res.SwitchesSaved > 0 {
		fmt.Printf("  peephole: %d context switches removed per cycle\n", res.SwitchesSaved)
	}
	fmt.Println("  guarantees verified: every VM receives its reserved time in every")
	fmt.Println("  period window and never waits longer than its latency goal.")
	for _, g := range res.Guarantees {
		fmt.Printf("    %-12s >= %7.3f ms per %7.3f ms window, blackout <= %.1f ms\n",
			specs[g.VCPU].Name, float64(g.Service)/1e6, float64(g.WindowLen)/1e6, float64(g.MaxBlackout)/1e6)
	}

	if *dump {
		idx := table.NewIndex(tbl, nil, nil)
		for ci, ct := range tbl.Cores {
			fmt.Printf("core %d (%d allocations, slice %.1f µs):\n", ct.Core, len(ct.Allocs), float64(idx.SliceLen(ci))/1e3)
			for _, a := range ct.Allocs {
				fmt.Printf("  [%10.3f, %10.3f) ms  %s\n",
					float64(a.Start)/1e6, float64(a.End)/1e6, specs[a.VCPU].Name)
			}
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := tbl.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *outPath, tbl.EncodedSizeCompact())
	}
}

// decode reads a binary table and prints its summary (the consumer-side
// view of the planner's "compiled format").
func decode(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tbl, err := table.Decode(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("decoded table generation %d\n", tbl.Generation)
	fmt.Printf("  length: %.3f ms, %d cores, %d vCPUs, %d slice entries\n",
		float64(tbl.Len)/1e6, tbl.NumCores(), len(tbl.VCPUs), tbl.SliceCount())
	for id, vi := range tbl.VCPUs {
		mode := "uncapped"
		if vi.Capped {
			mode = "capped"
		}
		extra := ""
		if vi.Split {
			extra = ", split"
		}
		fmt.Printf("  %-12s %7.3f ms/cycle on home core %d (%s%s)\n",
			vi.Name, float64(tbl.ServiceOf(id))/1e6, vi.HomeCore, mode, extra)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tableau-plan:", err)
	os.Exit(1)
}
