package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// -qualify measures the benchmark's own noise. Every run is a separate
// process running one workload, which is how the benchmark's consumer
// runs it. Per workload it makes 2N runs, alternating between two
// series so that both see the same stretch of machine time:
//
//   - same seed: N runs on -seed. Nothing differs between them but the
//     machine, so their spread is the estimator's noise. The figure is
//     the issue's, (max - min)/median.
//   - cross seed: N runs on seeds seed..seed+N-1, which is what the
//     consumer does. Their spread adds each workload's sensitivity to
//     its inputs. The figure is the consumer's: the interquartile range
//     as a share of the median.

type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedF(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// runOnce runs one workload in a child process and returns the metrics
// of its result line.
func runOnce(self string, w workloadDef, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rl runLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", w.name, seed, err)
	}
	if !rl.Correct || rl.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", w.name, seed, rl.Correct, rl.Failed)
	}
	vals := make(map[string]float64, len(rl.Metrics))
	for k, m := range rl.Metrics {
		vals[k] = m.Value
	}
	return vals, nil
}

// iqrPct is the consumer's noise figure: (Q3 - Q1)/median in percent.
func iqrPct(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return 100 * (q3 - q1) / medianF(xs)
}

func runQualify(selected []workloadDef, n int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("qualify: %d+%d runs per workload, same seed %d and seeds %d..%d, R=%d, -seconds %d\n\n",
		n, n, seed, seed, seed+int64(n)-1, replicatePasses, seconds)
	fmt.Println("| workload | metric | bound % | same-seed median | range % | iqr % | cross-seed median | iqr % | range % |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	var worstSame, worstCross float64
	for _, w := range selected {
		same, cross := make(map[string][]float64), make(map[string][]float64)
		for i := 0; i < n; i++ {
			for _, series := range []struct {
				seed int64
				into map[string][]float64
			}{{seed, same}, {seed + int64(i), cross}} {
				vals, err := runOnce(self, w, series.seed, seconds)
				if err != nil {
					return err
				}
				for k, v := range vals {
					series.into[k] = append(series.into[k], v)
				}
			}
		}
		for _, d := range endToEnd {
			s, c := same[d.name], cross[d.name]
			fmt.Printf("| %s | `%s` | %g | %.6g | %.2f | %.2f | %.6g | %.2f | %.2f |\n", w.name, d.name, 100*d.bound,
				medianF(s), spreadPct(s), iqrPct(s), medianF(c), iqrPct(c), spreadPct(c))
			if d.name == "setup_s" {
				continue // the consumer does not judge set-up's spread
			}
			worstSame = math.Max(worstSame, spreadPct(s)/(100*d.bound))
			worstCross = math.Max(worstCross, iqrPct(c)/(100*d.bound))
		}
	}
	fmt.Printf("\nworst same-seed range/bound %.2f (the issue asks for at most 0.5), worst cross-seed iqr/bound %.2f (the consumer refuses above 1), `setup_s` aside\n", worstSame, worstCross)
	return nil
}
