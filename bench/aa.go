package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// aaRounds is how many runs each set of the A/A check holds per workload.
const aaRounds = 5

// aaSide is one set's view of one metric.
type aaSide struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// aaCell compares the two sets on one workload × metric. RelDiff is
// (B − A) ÷ A on the medians: identical code, so whatever it shows is noise.
type aaCell struct {
	Unit    string  `json:"unit"`
	A       aaSide  `json:"a"`
	B       aaSide  `json:"b"`
	RelDiff float64 `json:"rel_diff"`
}

// runAA runs two alternating sets of five measured runs of this very
// binary on every workload — round r runs seed r+1 for both sets, A first
// on even rounds and B first on odd ones — and writes bench/AA.json.
func runAA(seconds int) error {
	type key struct{ workload, metric string }
	values := map[key]*[2][]float64{}
	units := map[string]string{}
	for _, sp := range specs {
		for round := 0; round < aaRounds; round++ {
			for turn := 0; turn < 2; turn++ {
				set := (round + turn) % 2
				res, info, err := runMeasured(sp, int64(round+1), seconds)
				if err != nil {
					return fmt.Errorf("%s round %d set %c: %w", sp.name, round, 'A'+set, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s round %d set %c: %d of %d ops failed: %s",
						sp.name, round, 'A'+set, res.Failed, res.Attempted, info.FirstFailure)
				}
				for name, m := range res.Metrics {
					k := key{sp.name, name}
					if values[k] == nil {
						values[k] = &[2][]float64{}
					}
					values[k][set] = append(values[k][set], m.Value)
					units[name] = m.Unit
				}
			}
		}
	}
	out := map[string]map[string]aaCell{}
	side := func(xs []float64) aaSide {
		q1, q2, q3 := quartiles(xs)
		return aaSide{Median: q2, Q1: q1, Q3: q3, Values: xs}
	}
	for k, v := range values {
		if out[k.workload] == nil {
			out[k.workload] = map[string]aaCell{}
		}
		a, b := side(v[0]), side(v[1])
		out[k.workload][k.metric] = aaCell{Unit: units[k.metric], A: a, B: b, RelDiff: (b.Median - a.Median) / a.Median}
	}
	doc, err := json.MarshalIndent(struct {
		Seconds   int                          `json:"seconds"`
		Rounds    int                          `json:"rounds_per_set"`
		Workloads map[string]map[string]aaCell `json:"workloads"`
	}{seconds, aaRounds, out}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "AA.json"), append(doc, '\n'), 0o644)
}
