package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestPercentileAndNormalisation(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.95, 48}, {1, 50}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty sample has a percentile")
	}
	if got := rel(900, 450); got != 2 {
		t.Errorf("rel(900, 450) = %v", got)
	}
	if !math.IsNaN(rel(1, 0)) {
		t.Error("rel by a zero reference is a number")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSameSeedSameOpstream(t *testing.T) {
	for _, sp := range specs {
		a, b, c := newInputs(sp, 7, 600), newInputs(sp, 7, 600), newInputs(sp, 8, 600)
		if a.sha != b.sha {
			t.Errorf("%s: one seed, two op streams: %s vs %s", sp.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: two seeds, one op stream", sp.name)
		}
		if got := len(a.warm); got < warmupOps {
			t.Errorf("%s: %d warm-up ops, want at least %d", sp.name, got, warmupOps)
		}
		requests := 0
		for _, o := range a.measured {
			if o.kind != opAdvise {
				requests++
			}
		}
		if requests != 600 {
			t.Errorf("%s: %d measured requests, want 600", sp.name, requests)
		}
	}
}

// The deck deals exact shares: any hundred-aligned stretch of sensor-append
// holds the mix to the request.
func TestMixIsExact(t *testing.T) {
	g := newGen(specByName("sensor-append"), 3)
	g.preloadStamps()
	ops, _ := g.ops(1000)
	counts := map[opKind]int{}
	for _, o := range ops {
		counts[o.kind]++
	}
	want := map[opKind]int{opInsert: 500, opTimeslice: 200, opRollback: 100, opAgg: 100, opDelete: 50, opBatch: 50}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%d %s ops in 1000, want %d", counts[k], k, n)
		}
	}
}

func TestModelDefinitions(t *testing.T) {
	m := newModel()
	a := m.insert(1, 10, 11, 5, 100) // event at 10
	m.insert(2, 20, 21, 7, 101)
	m.insert(3, 30, 31, 9, 102)
	m.remove(a)                    // tick 4, time unknown
	m.modify(1, 4, 25, 26, 8, 104) // closes es 2 at tick 5, opens es 4
	if got := m.current(); len(got) != 2 || got[0].es != 3 || got[1].es != 4 {
		t.Errorf("current = %+v", got)
	}
	if got := m.rollback(3); len(got) != 3 {
		t.Errorf("rollback to tick 3 = %+v, want all three inserts", got)
	}
	if got := m.rollback(5); len(got) != 2 || got[0].es != 3 || got[1].es != 4 {
		t.Errorf("rollback to tick 5 = %+v", got)
	}
	if got := m.timeslice(25); len(got) != 1 || got[0].es != 4 {
		t.Errorf("timeslice(25) = %+v", got)
	}
	if got := m.asOf(20, 3); len(got) != 1 || got[0].es != 2 {
		t.Errorf("asof(20, tick 3) = %+v", got)
	}
	// Windows of width 10: es 3 (vt 30, val 9) and es 4 (vt 25, val 8).
	sum := m.aggregate(aggSpec{fn: "sum", width: 10, mode: "cumulative"})
	want := []aggRow{{20, 30, 8, false}, {20, 40, 17, false}}
	if !slices.Equal(sum, want) {
		t.Errorf("cumulative sum = %+v, want %+v", sum, want)
	}
	roll := m.aggregate(aggSpec{fn: "max", width: 5, mode: "rolling", k: 2})
	// populated windows 5 ([25,30)) and 6 ([30,35)); rows for 5 and 6
	want = []aggRow{{20, 30, 8, false}, {25, 35, 9, false}}
	if !slices.Equal(roll, want) {
		t.Errorf("rolling max = %+v, want %+v", roll, want)
	}
	clamp := m.aggregate(aggSpec{fn: "count", star: true, width: 10, mode: "tumbling", clamp: true, lo: 26, hi: 40})
	if want = []aggRow{{30, 40, 1, false}}; !slices.Equal(clamp, want) {
		t.Errorf("clamped count = %+v, want %+v", clamp, want)
	}
}

func TestSelfTimesNeverNegative(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "client.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "net.roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 5, End: 95}, // sticks out of its parent on both sides
		{ID: 4, Parent: 3, Name: "device.sync", Start: 20, End: 60},
		{ID: 5, Parent: 3, Name: "device.write", Start: 60, End: 200}, // ends after everything
	}
	self, count := selfTimes(spans)
	for name, ns := range self {
		if ns < 0 {
			t.Errorf("self time of %s is %d", name, ns)
		}
	}
	if self["client.read"] != 20 || self["net.roundtrip"] != 0 || count["server.handler"] != 1 {
		t.Errorf("self = %v, count = %v", self, count)
	}
}

// toy shrinks a workload to test size: six batches of preload, a few
// hundred requests, an advisor pass every 128.
func toy(t *testing.T, name string) *spec {
	t.Helper()
	outDir = t.TempDir()
	sp := *specByName(name)
	sp.preload = 6 * batchSize
	sp.adviseEvery = 128
	return &sp
}

// Two traced runs of one seed must agree exactly on every count, and no
// per-layer number may be negative or not a number.
func TestToyTraceCountsRepeat(t *testing.T) {
	for _, name := range []string{"sensor-append", "dashboard-hot"} {
		sp := toy(t, name)
		var runs [2]map[string]metric
		for i := range runs {
			res, info, err := traceWith(sp, newInputs(sp, 5, 300), 5, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s: %d of %d ops failed: %s", name, res.Failed, res.Attempted, info.FirstFailure)
			}
			runs[i] = res.Metrics
		}
		for metricName, m := range runs[0] {
			if m.Value < 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: %s = %v", name, metricName, m.Value)
			}
			exact := strings.HasPrefix(metricName, "plan.count.") || strings.HasPrefix(metricName, "device.") && !strings.Contains(metricName, "_us")
			switch metricName {
			case "wal.frames", "wal.bytes_per_element", "wal.fsyncs_per_write", "storage.touched_per_result",
				"storage.runs_skipped_ratio", "integrity.leaves", "catalog.sealed_elements", "catalog.epochs_per_write",
				"qcache.hit_ratio", "client.etag_304_ratio", "server.resp_bytes_per_op", "storage.sealed_bytes_per_element":
				exact = true
			}
			if exact && runs[1][metricName].Value != m.Value {
				t.Errorf("%s: %s is %v in one run and %v in the next", name, metricName, m.Value, runs[1][metricName].Value)
			}
		}
		hit := runs[0]["qcache.hit_ratio"].Value
		switch name {
		case "sensor-append":
			if hit != 0 {
				t.Errorf("sensor-append hit the result cache: ratio %v", hit)
			}
			if runs[0]["plan.count.vt-binary-search"].Value == 0 || runs[0]["plan.count.full-scan"].Value != 0 {
				t.Errorf("sensor-append plans: %v binary searches, %v full scans",
					runs[0]["plan.count.vt-binary-search"].Value, runs[0]["plan.count.full-scan"].Value)
			}
		case "dashboard-hot":
			if hit < 0.2 || runs[0]["client.etag_304_ratio"].Value == 0 {
				t.Errorf("dashboard-hot: cache hit ratio %v, 304 ratio %v", hit, runs[0]["client.etag_304_ratio"].Value)
			}
		}
		if r := runs[0]["trace.self_sum_ratio"].Value; r < 0.85 || r > 1.15 {
			t.Errorf("%s: trace.self_sum_ratio = %v", name, r)
		}
	}
}

// BENCHMARK.json and the program must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(specNames(), " "); got != want {
		t.Errorf("workloads: BENCHMARK.json has %q, the program %q", got, want)
	}
	names = nil
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	want := append([]string(nil), endToEndNames...)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", names, want)
	}
	sp := toy(t, "sensor-append")
	res, _, err := traceWith(sp, newInputs(sp, 1, 64), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(res.Metrics) {
		t.Errorf("per_layer: BENCHMARK.json names %d metrics, a traced run prints %d", len(doc.PerLayer), len(res.Metrics))
	}
	for _, m := range doc.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("per_layer: %s is in BENCHMARK.json and not in a traced run", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("per_layer: %s has unit %q in BENCHMARK.json and %q in a traced run", m.Name, m.Unit, got.Unit)
		}
	}
}
