// Command benchpairs runs the paired benchmark protocol: the command
// BENCHMARK.json names, in a fresh copy of the parent commit and in one of
// the change, the same seed on both sides of a pair — odd pairs parent first,
// the workloads interleaved inside a pair — and writes every run plus, per
// workload × end-to-end metric, both medians and quartiles, who won each
// pair, the parent's own spread and a verdict against the metric's bound.
//
//	benchpairs -parent DIR -change DIR -pairs 10 [-seed 1] [-workloads a,b] -out FILE
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json the protocol needs.
type benchmark struct {
	Command    []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
}

// run is one execution of the benchmark; Values follow the file's Metrics.
type run struct {
	Pair      int       `json:"pair"`
	Seed      int       `json:"seed"`
	Workload  string    `json:"workload"`
	Side      string    `json:"side"`
	RanFirst  string    `json:"ran_first"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Values    []float64 `json:"values"`
}

// cell summarizes one workload × metric over all pairs. Delta is the change's
// median relative to the parent's and Pass says it is no worse by more than
// Bound; a gain is claimed on ChangeWins and on |Delta| against ParentIQRRel,
// the distance between the parent's quartiles over its median.
type cell struct {
	ParentMedian float64 `json:"parent_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeQ3     float64 `json:"change_q3"`
	Delta        float64 `json:"delta"`
	ParentIQRRel float64 `json:"parent_iqr_rel"`
	ChangeWins   int     `json:"change_wins"`
	Ties         int     `json:"ties"`
	Pairs        int     `json:"pairs"`
	Bound        float64 `json:"bound"`
	Pass         bool    `json:"pass"`
}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit")
	change := flag.String("change", "", "checkout of the change")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seed := flag.Int("seed", 1, "seed of the first pair; pair p runs seed+p-1 on both sides")
	only := flag.String("workloads", "", "comma-separated workload names (default: all in BENCHMARK.json)")
	out := flag.String("out", "", "file to write the runs and the summary to")
	flag.Parse()
	if *parent == "" || *change == "" || *out == "" || *pairs < 1 {
		log.Fatal("usage: benchpairs -parent DIR -change DIR -out FILE [-pairs 10] [-seed 1] [-workloads a,b]")
	}
	var bm benchmark
	raw, err := os.ReadFile(filepath.Join(*change, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	if err != nil {
		log.Fatalf("BENCHMARK.json: %v", err)
	}
	var workloads, metrics []string
	for _, w := range bm.Workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.Name+",") {
			workloads = append(workloads, w.Name)
		}
	}
	for _, m := range bm.EndToEnd {
		metrics = append(metrics, m.Name)
	}
	if len(workloads) == 0 || len(bm.Command) == 0 {
		log.Fatalf("no workload of %q (or no command) in BENCHMARK.json", *only)
	}
	var runs []run
	for p := 1; p <= *pairs; p++ {
		order := [2][2]string{{"parent", *parent}, {"change", *change}}
		if p%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, w := range workloads {
			for _, side := range order {
				r := run{Pair: p, Seed: *seed + p - 1, Workload: w, Side: side[0], RanFirst: order[0][0]}
				if err := r.execute(side[1], bm, metrics); err != nil {
					log.Fatalf("pair %d, %s, %s: %v", p, w, r.Side, err)
				}
				fmt.Fprintf(os.Stderr, "pair %d %-20s %-6s correct=%v failed=%d/%d\n", p, w, r.Side, r.Correct, r.Failed, r.Attempted)
				runs = append(runs, r)
			}
		}
	}
	summary := map[string]map[string]cell{}
	for _, w := range workloads {
		summary[w] = map[string]cell{}
		for mi, m := range bm.EndToEnd {
			var par, chg []float64
			for _, r := range runs {
				if r.Workload == w && r.Side == "parent" {
					par = append(par, r.Values[mi])
				} else if r.Workload == w {
					chg = append(chg, r.Values[mi])
				}
			}
			sign := map[string]float64{"lower": 1, "higher": -1}[m.Better] // so that lower wins
			c := cell{Pairs: len(par), Bound: m.Bound}
			for i := range par { // runs are appended pair by pair, so index i is pair i+1 on both sides
				if d := sign * (chg[i] - par[i]); d < 0 {
					c.ChangeWins++
				} else if d == 0 {
					c.Ties++
				}
			}
			c.ParentQ1, c.ParentMedian, c.ParentQ3 = quartiles(par)
			c.ChangeQ1, c.ChangeMedian, c.ChangeQ3 = quartiles(chg)
			if c.ParentMedian != 0 {
				c.Delta = (c.ChangeMedian - c.ParentMedian) / c.ParentMedian
				c.ParentIQRRel = (c.ParentQ3 - c.ParentQ1) / c.ParentMedian
			}
			c.Pass = sign*c.Delta <= m.Bound
			summary[w][m.Name] = c
		}
	}
	body, err := json.MarshalIndent(map[string]any{"metrics": metrics, "summary": summary, "runs": runs,
		"what": fmt.Sprintf("%d alternating pairs (seeds %d-%d) of parent and change, each a fresh copy in its own directory, `%s --workload W --seed <pair's> --seconds %d --trace 0`; odd pairs parent first, even pairs change first, the workloads interleaved inside each pair; every run made is in `runs`, whose `values` follow `metrics`",
			*pairs, *seed, *seed+*pairs-1, strings.Join(bm.Command, " "), bm.RunSeconds),
	}, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(body, '\n'), 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// execute runs the benchmark in dir and fills in the result, its last line.
func (r *run) execute(dir string, bm benchmark, metrics []string) error {
	args := append(append([]string(nil), bm.Command[1:]...),
		"--workload", r.Workload, "--seed", strconv.Itoa(r.Seed), "--seconds", strconv.Itoa(bm.RunSeconds), "--trace", "0")
	cmd := exec.Command(bm.Command[0], args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	res := struct {
		*run    // correct, attempted, failed
		Metrics map[string]struct{ Value float64 }
	}{run: r}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	for _, m := range metrics {
		v, ok := res.Metrics[m]
		if !ok {
			return fmt.Errorf("result has no metric %q", m)
		}
		r.Values = append(r.Values, v.Value)
	}
	return nil
}

// quartiles interpolates linearly between v's order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[min(lo+1, len(s)-1)]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
