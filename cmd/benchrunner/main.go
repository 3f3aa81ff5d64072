// Command benchrunner regenerates every figure and claim of the paper and
// prints the results as tables — the harness behind EXPERIMENTS.md. Each
// experiment is named by its DESIGN.md id: F1-F5 the figures, C1-C6 the
// formal claims, A1-A2 the ablations, and S2, S3, S5 the three serving
// dimensions tsbench (bench/) has no workload knob for yet.
//
// Usage:
//
//	benchrunner              # run everything
//	benchrunner -exp F1      # one experiment
//	benchrunner -n 50000     # size for the quantitative experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	ts "repro"
)

type experiment struct {
	id, name string
	run      func(n int) error
}

var experiments = []experiment{
	{"F1", "Figure 1 — isolated-event regions", runF1},
	{"F2", "Figure 2 — event-based lattice & inference", runF2},
	{"F3", "Figure 3 — inter-event orderings", runF3},
	{"F4", "Figure 4 — inter-event regularity", runF4},
	{"F5", "Figure 5 — inter-interval taxonomy", runF5},
	{"C1", "Claim C1 — completeness (eleven types)", runC1},
	{"C2", "Claim C2 — sequential ⇒ non-decreasing", runC2},
	{"C3", "Claim C3 — regularity gcd composition", runC3},
	{"C4", "Claim C4 — per-partition vs global", runC4},
	{"C5", "Claim C5 — degenerate ⇒ sequential; orthogonality", runC5},
	{"C6", "Claim C6 — specialization-driven physical design", runC6},
	{"A1", "Ablation — order sharing vs a separate B-tree index", runA1},
	{"A2", "Ablation — bounded-specialization pushdown (vt→tt window)", runA2},
	{"S2", "Durability — WAL sync policies and replay", runS2},
	{"S3", "Overload — admission shedding at 1x/4x/16x offered load", runS3},
	{"S5", "Cluster — follower catch-up and routed read scaling 1→3 nodes", runS5},
}

// retired names, for each single-run runner this command used to have,
// what measures its dimension now — with repeats and a noise floor, which
// the runner never had. Commit 780c46b is the last tree holding them.
var retired = map[string]string{
	"S1": "every *_rel metric of tsbench (bash bench/run.sh --workload W) and BenchmarkServeRoundTrip in ./internal/server",
	"S4": "read_p50_rel and read_p95_rel on dashboard-hot, and BenchmarkReadPath* in ./internal/catalog",
	"S6": "sensor-append under the advisor (disk_bytes_per_element), and BenchmarkAutoSpecialize* in ./internal/catalog",
	"S7": "agg_p50_rel on firehose-analytics, BenchmarkColumnarScan* and BenchmarkTemporalAggregate* in ./internal/storage, and TestDifferentialRowColumnar in ./internal/catalog",
	"S8": "integrity.leaf_us_per_frame and integrity.root_us of a traced tsbench run (the tax settled at ≈ 2 %; EXPERIMENTS S14 priced the rest)",
	"S9": "ingest_batch_p50_rel on all four workloads, and BenchmarkInsertBatch* and BenchmarkRecoverIngestLog in ./internal/catalog",
	"P1": "TestBuildChoices in ./internal/plan and plan.build_ns of a traced tsbench run",
}

// selectExperiments resolves the -exp flag: everything for "", one
// experiment for a registered id (any case), an error naming the
// replacement for a retired id and the registered ids for anything else.
func selectExperiments(id string) ([]experiment, error) {
	if id == "" {
		return experiments, nil
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		if strings.EqualFold(id, e.id) {
			return experiments[i : i+1], nil
		}
		ids[i] = e.id
	}
	if by, ok := retired[strings.ToUpper(id)]; ok {
		return nil, fmt.Errorf("experiment %s was retired; its dimension is measured by %s", id, by)
	}
	return nil, fmt.Errorf("unknown experiment %q; the ids are %s", id, strings.Join(ids, " "))
}

func main() {
	exp := flag.String("exp", "", "run only this experiment (F1-F5, C1-C6, A1-A2, S2, S3, S5)")
	n := flag.Int("n", 20000, "workload size for quantitative experiments")
	flag.Parse()

	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
	failed := false
	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", e.id, e.name)
		if err := e.run(*n); err != nil {
			fmt.Printf("FAILED: %v\n\n", err)
			failed = true
			continue
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// runF1 validates, for every isolated-event class, that a 10k-element
// workload drawn from its region passes its own checker and fails the
// checkers of every non-ancestor class — the region structure of Figure 1.
func runF1(int) error {
	inner, outer := ts.WorkloadBounds()
	specs := make(map[ts.Class]ts.EventSpec)
	specs[ts.General] = ts.GeneralSpec()
	specs[ts.Retroactive] = ts.RetroactiveSpec()
	specs[ts.Predictive] = ts.PredictiveSpec()
	type build struct {
		cls ts.Class
		fn  func() (ts.EventSpec, error)
	}
	for _, b := range []build{
		{ts.DelayedRetroactive, func() (ts.EventSpec, error) { return ts.DelayedRetroactiveSpec(inner) }},
		{ts.EarlyPredictive, func() (ts.EventSpec, error) { return ts.EarlyPredictiveSpec(inner) }},
		{ts.RetroactivelyBounded, func() (ts.EventSpec, error) { return ts.RetroactivelyBoundedSpec(inner) }},
		{ts.StronglyRetroactivelyBounded, func() (ts.EventSpec, error) { return ts.StronglyRetroactivelyBoundedSpec(outer) }},
		{ts.DelayedStronglyRetroactivelyBounded, func() (ts.EventSpec, error) { return ts.DelayedStronglyRetroactivelyBoundedSpec(inner, outer) }},
		{ts.PredictivelyBounded, func() (ts.EventSpec, error) { return ts.PredictivelyBoundedSpec(inner) }},
		{ts.StronglyPredictivelyBounded, func() (ts.EventSpec, error) { return ts.StronglyPredictivelyBoundedSpec(outer) }},
		{ts.EarlyStronglyPredictivelyBounded, func() (ts.EventSpec, error) { return ts.EarlyStronglyPredictivelyBoundedSpec(inner, outer) }},
		{ts.StronglyBounded, func() (ts.EventSpec, error) { return ts.StronglyBoundedSpec(inner, inner) }},
		{ts.Degenerate, func() (ts.EventSpec, error) { return ts.DegenerateSpec(ts.Second) }},
	} {
		s, err := b.fn()
		if err != nil {
			return err
		}
		specs[b.cls] = s
	}
	fmt.Printf("%-42s %10s %14s\n", "class", "n", "own check")
	for _, cls := range ts.EventClasses() {
		stamps := ts.EventStampsWorkload(cls, ts.WorkloadConfig{Seed: 1, N: 10000})
		start := time.Now()
		err := specs[cls].CheckAll(stamps)
		dur := time.Since(start)
		status := "pass"
		if err != nil {
			status = "FAIL"
		}
		fmt.Printf("%-42s %10d %8s %s\n", cls, len(stamps), status, dur.Round(time.Microsecond))
		if err != nil {
			return fmt.Errorf("%v workload fails its own spec: %v", cls, err)
		}
		// Ancestors must also accept (suitably parameterized: the ancestor
		// checks here are the parameterless ones, general/retroactive/
		// predictive, which need no bound adjustment).
		for _, anc := range []ts.Class{ts.Retroactive, ts.Predictive} {
			if !ts.IsSpecializationOf(cls, anc) {
				continue
			}
			if err := specs[anc].CheckAll(stamps); err != nil {
				return fmt.Errorf("%v workload fails ancestor %v: %v", cls, anc, err)
			}
		}
	}
	return nil
}

// runF2 reproduces Figure 2 by verifying, for every event class, that
// classification of a workload from that class reports exactly the class's
// ancestor closure within the bounded-parameter families it can prove.
func runF2(int) error {
	fmt.Println(ts.RenderLattice(ts.CategoryIsolatedEvent))
	fmt.Printf("%-42s %s\n", "workload class", "most-specific inferred classes")
	for _, cls := range ts.EventClasses() {
		stamps := ts.EventStampsWorkload(cls, ts.WorkloadConfig{Seed: 2, N: 5000})
		elems := stampsToElements(stamps)
		rep := ts.Classify(elems, ts.TTInsertion, ts.Second)
		if !rep.Has(cls) {
			return fmt.Errorf("classification of %v workload lacks %v", cls, cls)
		}
		for _, anc := range ts.Ancestors(cls) {
			if anc.Category() == ts.CategoryIsolatedEvent && !rep.Has(anc) {
				return fmt.Errorf("classification of %v workload lacks ancestor %v", cls, anc)
			}
		}
		var names []string
		for _, f := range rep.MostSpecific() {
			if f.Class.Category() == ts.CategoryIsolatedEvent {
				names = append(names, f.String())
			}
		}
		fmt.Printf("%-42s %s\n", cls, strings.Join(names, "; "))
	}
	return nil
}

func stampsToElements(stamps []ts.Stamp) []*ts.Element {
	out := make([]*ts.Element, len(stamps))
	for i, st := range stamps {
		out[i] = &ts.Element{
			ES: ts.Surrogate(i + 1), OS: 1,
			TTStart: st.TT, TTEnd: ts.Forever,
			VT: ts.EventAt(st.VT),
		}
	}
	return out
}

// runF3 reproduces Figure 3: the ordering implication matrix over
// generated workloads.
func runF3(int) error {
	fmt.Println(ts.RenderLattice(ts.CategoryInterEventOrder))
	type w struct {
		name   string
		stamps []ts.Stamp
	}
	seq := make([]ts.Stamp, 100)
	for i := range seq {
		tt := ts.Epoch.Add(int64(i+1) * 100)
		seq[i] = ts.Stamp{TT: tt, VT: tt.Add(-50)}
	}
	inc := make([]ts.Stamp, 100)
	for i := range inc {
		tt := ts.Epoch.Add(int64(i+1) * 100)
		inc[i] = ts.Stamp{TT: tt, VT: ts.Epoch.Add(int64(i) * 10)}
	}
	dec := make([]ts.Stamp, 100)
	for i := range dec {
		tt := ts.Epoch.Add(int64(i+1) * 100)
		dec[i] = ts.Stamp{TT: tt, VT: ts.Epoch.Add(-int64(i) * 10)}
	}
	workloads := []w{{"sequential", seq}, {"non-decreasing only", inc}, {"non-increasing", dec}}
	specs := []ts.InterEventSpec{
		ts.NonDecreasingEventsSpec(), ts.NonIncreasingEventsSpec(), ts.SequentialEventsSpec(),
	}
	fmt.Printf("%-22s", "workload \\ class")
	for _, s := range specs {
		fmt.Printf(" %-14s", shortClass(s.Class()))
	}
	fmt.Println()
	expect := map[string]map[ts.Class]bool{
		"sequential":          {ts.GloballyNonDecreasingEvents: true, ts.GloballyNonIncreasingEvents: false, ts.GloballySequentialEvents: true},
		"non-decreasing only": {ts.GloballyNonDecreasingEvents: true, ts.GloballyNonIncreasingEvents: false, ts.GloballySequentialEvents: false},
		"non-increasing":      {ts.GloballyNonDecreasingEvents: false, ts.GloballyNonIncreasingEvents: true, ts.GloballySequentialEvents: false},
	}
	for _, wl := range workloads {
		fmt.Printf("%-22s", wl.name)
		for _, s := range specs {
			ok := s.CheckAll(wl.stamps) == nil
			fmt.Printf(" %-14v", ok)
			if want := expect[wl.name][s.Class()]; ok != want {
				return fmt.Errorf("%s vs %v: got %v, want %v", wl.name, s.Class(), ok, want)
			}
		}
		fmt.Println()
	}
	return nil
}

func shortClass(c ts.Class) string {
	s := c.String()
	s = strings.TrimPrefix(s, "globally ")
	if i := strings.Index(s, " ("); i >= 0 {
		s = s[:i]
	}
	return s
}

// runF4 reproduces Figure 4: the regularity implication matrix, including
// the strict/non-strict split.
func runF4(int) error {
	fmt.Println(ts.RenderLattice(ts.CategoryInterEventRegular))
	mk := func(s ts.InterEventSpec, err error) ts.InterEventSpec {
		if err != nil {
			panic(err)
		}
		return s
	}
	// Workload A: strictly periodic and degenerate (all six classes hold).
	a := make([]ts.Stamp, 100)
	for i := range a {
		tt := ts.Epoch.Add(int64(i+1) * 60)
		a[i] = ts.Stamp{TT: tt, VT: tt}
	}
	// Workload B: tts in multiples of 60 but unevenly spaced (tt regular,
	// not strict), vts constant offset (temporal regular).
	b := make([]ts.Stamp, 100)
	gap := int64(60)
	tt := ts.Epoch
	for i := range b {
		tt = tt.Add(gap)
		if i%3 == 0 {
			tt = tt.Add(60)
		}
		b[i] = ts.Stamp{TT: tt, VT: tt.Add(-30)}
	}
	specs := []ts.InterEventSpec{
		mk(ts.TTEventRegularSpec(ts.Seconds(60))),
		mk(ts.VTEventRegularSpec(ts.Seconds(60))),
		mk(ts.TemporalEventRegularSpec(ts.Seconds(60))),
		mk(ts.StrictTTEventRegularSpec(ts.Seconds(60))),
		mk(ts.StrictVTEventRegularSpec(ts.Seconds(60))),
		mk(ts.StrictTemporalEventRegularSpec(ts.Seconds(60))),
	}
	expect := map[string][]bool{
		"strict periodic":  {true, true, true, true, true, true},
		"uneven multiples": {true, true, true, false, false, false},
	}
	fmt.Printf("%-18s", "workload")
	for _, s := range specs {
		fmt.Printf(" %-8s", abbrevRegular(s.Class()))
	}
	fmt.Println()
	for _, wl := range []struct {
		name   string
		stamps []ts.Stamp
	}{{"strict periodic", a}, {"uneven multiples", b}} {
		fmt.Printf("%-18s", wl.name)
		for i, s := range specs {
			ok := s.CheckAll(wl.stamps) == nil
			fmt.Printf(" %-8v", ok)
			if ok != expect[wl.name][i] {
				return fmt.Errorf("%s vs %v: got %v, want %v", wl.name, s.Class(), ok, expect[wl.name][i])
			}
		}
		fmt.Println()
	}
	return nil
}

func abbrevRegular(c ts.Class) string {
	switch c {
	case ts.TTEventRegular:
		return "tt"
	case ts.VTEventRegular:
		return "vt"
	case ts.TemporalEventRegular:
		return "temp"
	case ts.StrictTTEventRegular:
		return "s-tt"
	case ts.StrictVTEventRegular:
		return "s-vt"
	case ts.StrictTemporalEventRegular:
		return "s-temp"
	}
	return c.String()
}

// runF5 reproduces Figure 5: for each Allen relation, a chain whose
// successive intervals satisfy it is recognized as st-X and as the
// ordering classes its relation implies.
func runF5(int) error {
	fmt.Println(ts.RenderLattice(ts.CategoryInterInterval))
	fmt.Printf("%-18s %-8s %-16s %-16s\n", "st-X chain", "st-X", "non-decreasing", "non-increasing")
	chains := map[ts.AllenRelation][]ts.IntervalStampPair{}
	for _, rel := range ts.AllenRelations() {
		chains[rel] = allenChain(rel)
	}
	for _, rel := range ts.AllenRelations() {
		stamps := chains[rel]
		st := ts.SuccessiveTTSpec(rel)
		nd := ts.NonDecreasingIntervalsSpec()
		ni := ts.NonIncreasingIntervalsSpec()
		stOK := st.CheckAll(stamps) == nil
		ndOK := nd.CheckAll(stamps) == nil
		niOK := ni.CheckAll(stamps) == nil
		fmt.Printf("%-18s %-8v %-16v %-16v\n", rel, stOK, ndOK, niOK)
		if !stOK {
			return fmt.Errorf("st-%v chain rejected by its own spec", rel)
		}
		wantND := ts.IsSpecializationOf(ts.STBefore+ts.Class(rel), ts.GloballyNonDecreasingIntervals)
		wantNI := ts.IsSpecializationOf(ts.STBefore+ts.Class(rel), ts.GloballyNonIncreasingIntervals)
		if ndOK != wantND || niOK != wantNI {
			return fmt.Errorf("st-%v ordering mismatch: nd=%v (want %v) ni=%v (want %v)",
				rel, ndOK, wantND, niOK, wantNI)
		}
	}
	return nil
}

// allenChain builds a three-element transaction-time chain whose successive
// valid intervals are related by rel.
func allenChain(rel ts.AllenRelation) []ts.IntervalStampPair {
	raw := map[ts.AllenRelation][][2]int64{
		ts.Before:       {{0, 10}, {20, 30}, {40, 50}},
		ts.Meets:        {{0, 10}, {10, 20}, {20, 30}},
		ts.Overlaps:     {{0, 10}, {5, 15}, {10, 20}},
		ts.Starts:       {{0, 10}, {0, 20}, {0, 30}},
		ts.During:       {{40, 50}, {30, 60}, {20, 70}},
		ts.Finishes:     {{40, 50}, {30, 50}, {20, 50}},
		ts.Equal:        {{0, 10}, {0, 10}, {0, 10}},
		ts.After:        {{40, 50}, {20, 30}, {0, 10}},
		ts.MetBy:        {{20, 30}, {10, 20}, {0, 10}},
		ts.OverlappedBy: {{10, 20}, {5, 15}, {0, 10}},
		ts.StartedBy:    {{0, 30}, {0, 20}, {0, 10}},
		ts.Contains:     {{0, 100}, {10, 90}, {20, 80}},
		ts.FinishedBy:   {{0, 50}, {20, 50}, {30, 50}},
	}[rel]
	out := make([]ts.IntervalStampPair, len(raw))
	for i, iv := range raw {
		out[i] = ts.IntervalStampPair{
			TT: ts.Epoch.Add(int64(i+1) * 10),
			VT: ts.MakeInterval(ts.Epoch.Add(iv[0]), ts.Epoch.Add(iv[1])),
		}
	}
	return out
}

// runC1 performs the completeness enumeration.
func runC1(int) error {
	c := ts.EnumerateRegions()
	fmt.Printf("zero lines: %d   one line: %d   two lines: %d\n", c.ZeroLines, c.OneLine, c.TwoLines)
	fmt.Printf("specialized types: %d (paper: 11)\n", c.Specializations())
	if c.ZeroLines != 1 || c.OneLine != 6 || c.TwoLines != 5 || c.Specializations() != 11 {
		return fmt.Errorf("enumeration does not match the paper")
	}
	return nil
}

// runC2 verifies sequential ⇒ non-decreasing on generated workloads, and
// their coincidence for degenerate relations.
func runC2(n int) error {
	r, err := ts.MonitoringWorkload(ts.WorkloadConfig{Seed: 3, N: min(n, 20000)})
	if err != nil {
		return err
	}
	stamps := ts.StampsOf(r.Versions(), ts.TTInsertion, ts.VTStart)
	if err := ts.SequentialEventsSpec().CheckAll(stamps); err != nil {
		return fmt.Errorf("monitoring workload not sequential: %v", err)
	}
	if err := ts.NonDecreasingEventsSpec().CheckAll(stamps); err != nil {
		return fmt.Errorf("sequential workload not non-decreasing: %v", err)
	}
	fmt.Printf("sequential monitoring workload (n=%d): non-decreasing holds\n", len(stamps))
	deg := ts.EventStampsWorkload(ts.Degenerate, ts.WorkloadConfig{Seed: 3, N: 10000})
	seqOK := ts.SequentialEventsSpec().CheckAll(deg) == nil
	ndOK := ts.NonDecreasingEventsSpec().CheckAll(deg) == nil
	fmt.Printf("degenerate workload: sequential=%v non-decreasing=%v (must coincide)\n", seqOK, ndOK)
	if seqOK != ndOK || !seqOK {
		return fmt.Errorf("degenerate coincidence fails")
	}
	return nil
}

// runC3 verifies the gcd composition with the paper's own numbers and the
// strict counterexample.
func runC3(int) error {
	g := ts.GCD(28, 6)
	fmt.Printf("gcd(28s, 6s) = %ds (paper: 2s)\n", g)
	if g != 2 {
		return fmt.Errorf("gcd wrong")
	}
	stamps := make([]ts.Stamp, 50)
	for i := range stamps {
		t := ts.Epoch.Add(int64(i) * 28 * 6)
		stamps[i] = ts.Stamp{TT: t, VT: t}
	}
	tt28, _ := ts.TTEventRegularSpec(ts.Seconds(28))
	vt6, _ := ts.VTEventRegularSpec(ts.Seconds(6))
	t2, _ := ts.TemporalEventRegularSpec(ts.Seconds(2))
	for name, s := range map[string]ts.InterEventSpec{"tt-regular 28s": tt28, "vt-regular 6s": vt6, "temporal 2s": t2} {
		if err := s.CheckAll(stamps); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		fmt.Printf("%s: holds\n", name)
	}
	// Strict counterexample: tts 10 apart, vts 20 apart.
	strict := make([]ts.Stamp, 50)
	for i := range strict {
		strict[i] = ts.Stamp{TT: ts.Epoch.Add(int64(i) * 10), VT: ts.Epoch.Add(int64(i) * 20)}
	}
	sTT, _ := ts.StrictTTEventRegularSpec(ts.Seconds(10))
	sVT, _ := ts.StrictVTEventRegularSpec(ts.Seconds(20))
	if err := sTT.CheckAll(strict); err != nil {
		return err
	}
	if err := sVT.CheckAll(strict); err != nil {
		return err
	}
	for _, unit := range []int64{2, 10, 20} {
		sT, _ := ts.StrictTemporalEventRegularSpec(ts.Seconds(unit))
		if sT.CheckAll(strict) == nil {
			return fmt.Errorf("strict temporal with unit %ds unexpectedly holds", unit)
		}
	}
	fmt.Println("strict tt (10s) ∧ strict vt (20s) but strict temporal fails at 2s/10s/20s: composition does not lift to strict (paper ✓)")
	return nil
}

// runC4 verifies that non-strict per-partition regularity implies global
// regularity while strictness and orderings do not.
func runC4(int) error {
	// Two partitions, each strictly periodic at 100s but with offset
	// anchors 0 and 3, interleaved in transaction time.
	var all []ts.Stamp
	parts := make(map[ts.Surrogate][]*ts.Element)
	var es uint64
	for i := 0; i < 50; i++ {
		for p := int64(0); p < 2; p++ {
			t := ts.Epoch.Add(int64(i)*100 + p*3)
			es++
			e := &ts.Element{ES: ts.Surrogate(es), OS: ts.Surrogate(p + 1),
				TTStart: t, TTEnd: ts.Forever, VT: ts.EventAt(t)}
			parts[e.OS] = append(parts[e.OS], e)
			all = append(all, ts.Stamp{TT: t, VT: t})
		}
	}
	rep := ts.ClassifyPerPartition(parts, ts.TTInsertion, ts.Second)
	if !rep.Has(ts.StrictTTEventRegular) {
		return fmt.Errorf("per-partition strict regularity not found")
	}
	fmt.Println("per partition: strict tt event regular holds in both partitions (Δt=100s)")
	sTT, _ := ts.StrictTTEventRegularSpec(ts.Seconds(100))
	if sTT.CheckAll(all) == nil {
		return fmt.Errorf("global strict regularity unexpectedly holds")
	}
	fmt.Println("globally: strict tt event regular fails (anchors interleave) — strictness does not lift (paper ✓)")
	ttReg, _ := ts.TTEventRegularSpec(ts.Seconds(1))
	if err := ttReg.CheckAll(all); err != nil {
		return fmt.Errorf("global non-strict regularity should hold at the combined unit: %v", err)
	}
	fmt.Println("globally: non-strict tt event regular holds at the combined unit (1s) — non-strict lifts (paper ✓)")
	return nil
}

// runC5 verifies that a degenerate relation is necessarily globally
// sequential, and that other isolated-event classes are orthogonal to the
// inter-event ones.
func runC5(int) error {
	deg := ts.EventStampsWorkload(ts.Degenerate, ts.WorkloadConfig{Seed: 5, N: 10000})
	if err := ts.SequentialEventsSpec().CheckAll(deg); err != nil {
		return fmt.Errorf("degenerate workload not sequential: %v", err)
	}
	fmt.Println("degenerate ⇒ globally sequential: holds on a 10k workload (paper ✓)")
	// Orthogonality: a retroactive workload can be ordered or not.
	retro := ts.EventStampsWorkload(ts.Retroactive, ts.WorkloadConfig{Seed: 5, N: 1000})
	ndOK := ts.NonDecreasingEventsSpec().CheckAll(retro) == nil
	fmt.Printf("random retroactive workload non-decreasing: %v (unforced either way)\n", ndOK)
	// Build a retroactive AND non-decreasing workload: both declarable.
	both := make([]ts.Stamp, 100)
	for i := range both {
		t := ts.Epoch.Add(int64(i+1) * 100)
		both[i] = ts.Stamp{TT: t, VT: t.Add(-10)}
	}
	if err := ts.RetroactiveSpec().CheckAll(both); err != nil {
		return err
	}
	if err := ts.NonDecreasingEventsSpec().CheckAll(both); err != nil {
		return err
	}
	fmt.Println("retroactive ∧ non-decreasing jointly satisfiable: orthogonal dimensions (paper ✓)")
	return nil
}

// runC6 measures the physical-design benefit: time-slice and rollback
// costs on the advised store vs the general organization, over growing n.
func runC6(n int) error {
	fmt.Printf("%-10s %-26s %-26s %10s\n", "n", "specialized (vt-ordered)", "general (heap scan)", "speedup")
	for _, size := range []int{n / 10, n, n * 10} {
		r, err := ts.MonitoringWorkload(ts.WorkloadConfig{Seed: 6, N: size})
		if err != nil {
			return err
		}
		spec, advice, err := ts.EngineForRelation(r, []ts.Class{ts.GloballySequentialEvents})
		if err != nil {
			return err
		}
		if advice.Store != ts.VTOrderedStore {
			return fmt.Errorf("advice = %v", advice.Store)
		}
		heap := ts.NewHeapStore()
		for _, e := range r.Versions() {
			if err := heap.Insert(e); err != nil {
				return err
			}
		}
		gen := ts.NewQueryEngine(heap, nil)
		es := r.Versions()
		queries := make([]ts.Chronon, 0, 200)
		for i := 0; i < 200; i++ {
			queries = append(queries, es[(i*7919)%len(es)].VT.Start())
		}
		tSpec := timeQueries(func(q ts.Chronon) int { return spec.Timeslice(q).Touched }, queries)
		tGen := timeQueries(func(q ts.Chronon) int { return gen.Timeslice(q).Touched }, queries)
		fmt.Printf("%-10d %-26s %-26s %9.1fx\n", size,
			fmt.Sprintf("%v (%d touched/query)", tSpec.dur, tSpec.touched/len(queries)),
			fmt.Sprintf("%v (%d touched/query)", tGen.dur, tGen.touched/len(queries)),
			float64(tGen.dur)/float64(tSpec.dur))
		if tSpec.touched >= tGen.touched {
			return fmt.Errorf("specialized store touched more data than the general one")
		}
	}
	return nil
}

// runA1 prices the general relation's alternative to order sharing: a
// B-tree valid-time index. Insert cost and time-slice cost are measured
// for the bare heap, the indexed heap, and the vt-ordered log.
func runA1(n int) error {
	shuffledVT := func(i int) ts.Chronon { return ts.Chronon((int64(i)*7919 + 1) % (int64(n) * 13)) }
	orderedVT := func(i int) ts.Chronon { return ts.Chronon(int64(i) * 10) }
	mkElems := func(vt func(int) ts.Chronon) []*ts.Element {
		es := make([]*ts.Element, n)
		for i := range es {
			es[i] = &ts.Element{
				ES: ts.Surrogate(i + 1), OS: 1,
				TTStart: ts.Chronon(int64(i) * 10), TTEnd: ts.Forever,
				VT: ts.EventAt(vt(i)),
			}
		}
		return es
	}
	designs := []struct {
		name string
		mk   func() ts.Store
		es   []*ts.Element
	}{
		{"heap (no vt access path)", ts.NewHeapStore, mkElems(shuffledVT)},
		{"heap + B-tree vt index", ts.NewIndexedEventStore, mkElems(shuffledVT)},
		{"vt-ordered log (declared)", ts.NewVTLogStore, mkElems(orderedVT)},
	}
	fmt.Printf("%-28s %-16s %-22s %14s\n", "physical design", "insert (n rows)", "timeslice (200 q)", "touched/query")
	for _, d := range designs {
		st := d.mk()
		start := time.Now()
		for _, e := range d.es {
			if err := st.Insert(e); err != nil {
				return err
			}
		}
		insertDur := time.Since(start).Round(time.Microsecond)

		queries := make([]ts.Chronon, 200)
		for i := range queries {
			queries[i] = d.es[(i*7919)%n].VT.Start()
		}
		start = time.Now()
		touched := 0
		for _, q := range queries {
			got, tq := st.Timeslice(q)
			if len(got) == 0 {
				return fmt.Errorf("%s: query found nothing", d.name)
			}
			touched += tq
		}
		qDur := time.Since(start).Round(time.Microsecond)
		fmt.Printf("%-28s %-16v %-22v %14d\n", d.name, insertDur, qDur, touched/len(queries))
	}
	fmt.Println("\nshape: the index matches the log's query cost but pays tree maintenance on")
	fmt.Println("every insert; the declared ordering gets the same access path for free.")
	return nil
}

// runA2 measures the second specialization-driven strategy: a declared
// two-sided bound converts valid-time predicates into transaction-time
// windows, so the plain tt-ordered arrival log answers historical queries
// by binary search — no valid-time order or index needed.
func runA2(n int) error {
	r, err := ts.MonitoringWorkload(ts.WorkloadConfig{Seed: 9, N: n})
	if err != nil {
		return err
	}
	// The monitoring relation is declared delayed strongly retroactively
	// bounded with delays in [30 s, 300 s]: vt - tt in [-300, -30].
	spec, err := ts.DelayedStronglyRetroactivelyBoundedSpec(ts.Seconds(30), ts.Seconds(300))
	if err != nil {
		return err
	}
	ttlog := ts.NewTTLogStore()
	heap := ts.NewHeapStore()
	for _, e := range r.Versions() {
		if err := ttlog.Insert(e); err != nil {
			return err
		}
		if err := heap.Insert(e); err != nil {
			return err
		}
	}
	pushdown := ts.NewQueryEngine(ttlog, nil)
	if err := ts.EnableBoundedPushdown(pushdown, r, spec); err != nil {
		return err
	}
	scan := ts.NewQueryEngine(heap, nil)

	es := r.Versions()
	queries := make([]ts.Chronon, 200)
	for i := range queries {
		queries[i] = es[(i*7919)%len(es)].VT.Start()
	}
	tPush := timeQueries(func(q ts.Chronon) int { return pushdown.Timeslice(q).Touched }, queries)
	tScan := timeQueries(func(q ts.Chronon) int { return scan.Timeslice(q).Touched }, queries)
	for _, q := range queries[:20] {
		a := pushdown.Timeslice(q)
		b := scan.Timeslice(q)
		if len(a.Elements) != len(b.Elements) {
			return fmt.Errorf("pushdown disagrees with scan at %v", q)
		}
	}
	fmt.Printf("n=%d, bound window 270 s wide, 200 time-slice queries\n", n)
	fmt.Printf("%-34s %-12s %14s\n", "strategy", "total", "touched/query")
	fmt.Printf("%-34s %-12v %14d\n", "tt-window pushdown (declared)", tPush.dur, tPush.touched/len(queries))
	fmt.Printf("%-34s %-12v %14d\n", "heap scan (undeclared)", tScan.dur, tScan.touched/len(queries))
	fmt.Printf("speedup %.1fx\n", float64(tScan.dur)/float64(tPush.dur))
	if tPush.touched >= tScan.touched {
		return fmt.Errorf("pushdown touched more data than the scan")
	}
	return nil
}

// writeBench leaves an experiment's table as JSON in the working directory.
func writeBench(name string, res any) error {
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", name)
	return nil
}

type timing struct {
	dur     time.Duration
	touched int
}

func timeQueries(run func(ts.Chronon) int, queries []ts.Chronon) timing {
	start := time.Now()
	touched := 0
	for _, q := range queries {
		touched += run(q)
	}
	return timing{dur: time.Since(start).Round(time.Microsecond), touched: touched}
}
