// Command tsbench is the repository's benchmark: four seeded workloads
// against tsdbd as cmd/tsdbd wires it, thirteen end-to-end metrics
// normalised by an interleaved reference round trip, and a separate traced
// run that splits an operation's time by layer. README.md in this
// directory is the glossary; BENCHMARK.json at the repository root is the
// contract.
//
//	tsbench --workload sensor-append --seed 1 --seconds 10 --trace 0
//	tsbench --workload sensor-append --seed 1 --seconds 10 --trace 1
//	tsbench -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(specNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same op list")
		seconds  = flag.Int("seconds", 15, "length of the measured phase: the op list holds this many seconds of calibrated work")
		trace    = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
		serve    = flag.Bool("serve", false, "internal: run as the server child")
		ref      = flag.Bool("ref", false, "internal: run as the reference child")
		dataDir  = flag.String("data", "", "internal: the server child's data directory")
		aa       = flag.Bool("aa", false, "run two alternating sets of five full runs and write bench/AA.json")
	)
	flag.Parse()

	switch {
	case *serve:
		exitOn(serveChild(*dataDir))
	case *ref:
		exitOn(refChild())
	case *aa:
		killOnSignal()
		exitOn(runAA(*seconds))
	default:
		killOnSignal()
		sp := specByName(*workload)
		if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
			flag.Usage()
			os.Exit(2)
		}
		var (
			res  result
			info runInfo
			err  error
		)
		if *trace == 1 {
			res, info, err = runTraced(sp, *seed, *seconds)
		} else {
			res, info, err = runMeasured(sp, *seed, *seconds)
		}
		line, _ := json.Marshal(info)
		fmt.Println(string(line))
		// A run that could not finish has no result to print.
		exitOn(err)
		line, _ = json.Marshal(res)
		fmt.Println(string(line))
	}
}

func specNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}
