// Command bench is the repository's end-to-end benchmark: four seeded
// workloads that together cover the chain from Arbiter.Place through
// Host.Commit, Controller.Flush, planner, table encode, journal append
// and dispatcher install to the latency a guest request sees, measured
// so that the numbers repeat on a small noisy machine. README.md in
// this directory explains the estimator, the workloads and the trace.
//
//	go run ./bench                      all four workloads, end-to-end metrics
//	go run ./bench -trace               plus the traced pass and per-layer metrics
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	go run ./bench -qualify 10          noise table: 10 same-seed and 10 cross-seed runs per workload
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds is the run length the op counts in the workload
// definitions are sized for (run_seconds in BENCHMARK.json): about this
// many seconds of measured work per invocation, all passes together.
// -seconds scales the op counts in proportion.
const defaultSeconds = 7

// replicatePasses is R, the number of replicate passes per workload. It
// is a constant of the benchmark: results taken at different R are not
// comparable, because a minimum over more replicates is lower.
const replicatePasses = 10

type runConfig struct {
	seed    int64
	seconds int
}

// scale converts an op count sized for defaultSeconds to the requested
// run length, never below one op.
func (c runConfig) scale(n int) int {
	return max(n*c.seconds/defaultSeconds, 1)
}

// normalizeTrace lets -trace be written bare, as a switch, as well as
// with the 0|1 value the benchmark driver passes.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 >= len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run one workload (default: all four, passes interleaved)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "run length the op counts are scaled to")
	trace := fs.Int("trace", 0, "1: add the traced pass, print per-layer metrics, write span files")
	qualify := fs.Int("qualify", 0, "run every workload 2N times as separate processes, N on -seed and N on seeds seed..seed+N-1, and print both spreads of each end-to-end metric")
	_ = fs.Parse(normalizeTrace(os.Args[1:]))
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		os.Exit(2)
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workloadDef{w}
	}

	if *qualify > 0 {
		if err := runQualify(selected, *qualify, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	// One P: the product's concurrency is not under test here, and a
	// second P only adds scheduler and collector placement noise.
	runtime.GOMAXPROCS(1)

	results, err := evaluate(selected, runConfig{seed: *seed, seconds: *seconds}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, r := range results {
		r.print(os.Stdout)
	}
	for _, r := range results {
		fmt.Println(r.jsonLine())
	}
}

// evaluate runs the selected workloads: R untraced passes each,
// interleaved pass-major, then (traced) one more pass per workload with
// spans and probes on. A pass is a whole run from the seed — set-up and
// measured phase on a fresh rig — so nothing carries over between
// passes but the timings.
func evaluate(selected []workloadDef, cfg runConfig, traced bool) ([]*result, error) {
	recs := make([][]*recorder, len(selected))
	for _, slot := range passOrder(len(selected), replicatePasses) {
		w := selected[slot.workload]
		rec := newRecorder(nil, float64(slot.pass)/replicatePasses)
		if err := w.run(cfg, rec); err != nil {
			return nil, fmt.Errorf("pass %d: %w", slot.pass, err)
		}
		recs[slot.workload] = append(recs[slot.workload], rec)
	}
	var results []*result
	for i, w := range selected {
		var tr *recorder
		if traced {
			tr = newRecorder(newTracer(), 0)
			if err := w.run(cfg, tr); err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
			path, err := writeSpans(w.name, tr.tr.spans)
			if err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Printf("spans: %d written to %s\n", len(tr.tr.spans), path)
		}
		r, err := reduce(w, cfg, recs[i], tr)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}
