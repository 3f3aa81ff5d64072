package catalog

// Differential equivalence harness for the window-aggregate engines: every
// generated (history, query) pair is evaluated twice through the public
// read path — once forced onto the row reference engine (USING ROW), once
// onto the columnar batch engine (USING COLUMNAR) — and the two results
// must be identical, errors included. Histories cover the temporal classes
// the specializer distinguishes (degenerate, sequential, vt-regular,
// violation-degraded, random), are reshaped by deletes and modifies, and
// are respecialized + compacted mid-build so queries cross sealed runs and
// unsealed tails. A -race companion repeats the comparison on pinned
// snapshot views while inserts, vacuum, compaction and respecialization
// churn the live entry.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tsql"
)

func diffSchema(name string, stamp element.TimestampKind) relation.Schema {
	return relation.Schema{
		Name: name, ValidTime: stamp, Granularity: chronon.Second,
		Varying: []relation.Column{
			{Name: "v_int", Type: element.KindInt},
			{Name: "v_float", Type: element.KindFloat},
			{Name: "v_str", Type: element.KindString},
		},
	}
}

// diffValues draws one varying tuple; every column is nullable so the
// count(col)-vs-count(*) and null-skipping paths stay exercised.
func diffValues(rng *rand.Rand) []element.Value {
	vi := element.Int(rng.Int63n(200) - 50)
	if rng.Intn(10) == 0 {
		vi = element.Null()
	}
	// Multiples of 1/8 are exact in binary, so sums depend only on fold
	// order — which both engines fix to arrival order.
	vf := element.Float(float64(rng.Intn(4000))/8 - 100)
	if rng.Intn(10) == 0 {
		vf = element.Null()
	}
	vs := element.String_(string(rune('a' + rng.Intn(5))))
	if rng.Intn(10) == 0 {
		vs = element.Null()
	}
	return []element.Value{vi, vf, vs}
}

// classVT advances one history class's valid-time sequence.
func classVT(class string, rng *rand.Rand, i int, cur *int64) int64 {
	switch class {
	case "degenerate":
		// Tracks the logical transaction clock (start 0, step 10): valid
		// time equals transaction time, the degenerate class.
		return int64(10 * (i + 1))
	case "sequential":
		*cur += rng.Int63n(12)
		return *cur
	case "vtregular":
		return int64(7 * i)
	case "degraded":
		*cur += rng.Int63n(12)
		if rng.Intn(32) == 0 {
			return *cur - 40 - rng.Int63n(40) // rare order violation
		}
		return *cur
	default: // random
		return rng.Int63n(4000)
	}
}

// buildDiffRelation grows one relation through a class-shaped history:
// bulk inserts, a sprinkle of deletes and modifies, an advisor pass that
// respecializes and seals what the inferred class licenses, then a fresh
// tail past the sealed prefix. Returns the entry and the observed
// valid-time high-water mark.
func buildDiffRelation(t *testing.T, c *Catalog, name, class string, stamp element.TimestampKind, rng *rand.Rand) (*Entry, int64) {
	t.Helper()
	e, err := c.Create(diffSchema(name, stamp))
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	var cur int64
	vtHi := int64(1)
	var esList []surrogate.Surrogate
	insert := func(i int) {
		lo := classVT(class, rng, i, &cur)
		var vt element.Timestamp
		if stamp == element.EventStamp {
			vt = element.EventAt(chronon.Chronon(lo))
			if lo+1 > vtHi {
				vtHi = lo + 1
			}
		} else {
			hi := lo + 1 + rng.Int63n(30)
			vt = element.SpanOf(chronon.Chronon(lo), chronon.Chronon(hi))
			if hi > vtHi {
				vtHi = hi
			}
		}
		el, err := insert(e, relation.Insertion{VT: vt, Varying: diffValues(rng)})
		if err != nil {
			t.Fatalf("%s insert %d: %v", name, i, err)
		}
		esList = append(esList, el.ES)
	}
	const n = 520 // more than two sealable runs of 256
	for i := 0; i < n; i++ {
		insert(i)
	}
	// Deletes and history rewrites: repeats may hit already-closed
	// elements and fail — that is itself a legal history, so errors are
	// ignored; the surviving extension is what both engines must agree on.
	for i := 0; i < n/16; i++ {
		es := esList[rng.Intn(len(esList))]
		if rng.Intn(2) == 0 {
			_ = remove(e, es)
		} else {
			lo := rng.Int63n(vtHi)
			vt := element.EventAt(chronon.Chronon(lo))
			if stamp == element.IntervalStamp {
				vt = element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+5))
			}
			_, _ = modify(e, es, vt, diffValues(rng))
		}
	}
	// Zero thresholds: examine (and respecialize + compact) everything.
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	for i := n; i < n+24; i++ { // unsealed tail past the compacted prefix
		insert(i)
	}
	return e, vtHi
}

// genAggQuery emits one random aggregate statement (without USING or
// LIMIT, which the runner appends) plus its LIMIT suffix.
func genAggQuery(rng *rand.Rand, rel string, interval bool, vtHi, ttHi int64) (base, lim string) {
	aggs := []string{
		"count(*)", "count(v_int)", "sum(v_int)", "sum(v_float)",
		"min(v_int)", "max(v_int)", "min(v_float)", "max(v_float)",
		"min(v_str)", "max(v_str)",
	}
	k := 1 + rng.Intn(3)
	parts := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		parts = append(parts, aggs[rng.Intn(len(aggs))])
	}
	if rng.Intn(16) == 0 {
		// Type errors must be errors in BOTH engines, with the same text.
		parts = append(parts, "sum(v_str)")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "select %s from %s", strings.Join(parts, ", "), rel)
	if rng.Intn(10) < 3 {
		fmt.Fprintf(&b, " as of %d", rng.Int63n(ttHi+40))
	}
	switch rng.Intn(10) {
	case 0, 1:
		fmt.Fprintf(&b, " when valid at %d", rng.Int63n(vtHi+10))
	case 2, 3:
		lo := rng.Int63n(vtHi)
		fmt.Fprintf(&b, " when valid during [%d, %d)", lo, lo+1+rng.Int63n(vtHi))
	case 4:
		if interval {
			lo := rng.Int63n(vtHi)
			fmt.Fprintf(&b, " when overlaps [%d, %d)", lo, lo+1+rng.Int63n(40))
		}
	}
	switch rng.Intn(10) {
	case 0, 1:
		fmt.Fprintf(&b, " where v_int > %d", rng.Int63n(100)-50)
	case 2:
		fmt.Fprintf(&b, " where v_str == '%c'", 'a'+rune(rng.Intn(5)))
	}
	widths := []int64{7, 13, 50, 100, 256}
	w := widths[rng.Intn(len(widths))]
	switch rng.Intn(5) {
	case 0:
		fmt.Fprintf(&b, " group by window(%d, rolling %d)", w, 2+rng.Intn(4))
	case 1:
		fmt.Fprintf(&b, " group by window(%d, cumulative)", w)
	default:
		fmt.Fprintf(&b, " group by window(%d)", w)
	}
	if rng.Intn(4) == 0 {
		lim = fmt.Sprintf(" limit %d", 1+rng.Intn(6))
	}
	return b.String(), lim
}

// runDiff evaluates one statement under both engine hints through the
// public read path and requires identical results (or identical errors).
// Returns whether the statement evaluated successfully.
func runDiff(t *testing.T, e *Entry, base, lim string) bool {
	t.Helper()
	ctx := context.Background()
	parse := func(src string) *tsql.Query {
		q, err := tsql.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		return q
	}
	qRow := parse(base + " using row" + lim)
	qCol := parse(base + " using columnar" + lim)
	rRes, rNode, _, rErr := e.SelectCtx(ctx, qRow)
	cRes, cNode, _, cErr := e.SelectCtx(ctx, qCol)
	if (rErr != nil) != (cErr != nil) {
		t.Fatalf("%q: engines disagree on failure: row err %v, columnar err %v", base+lim, rErr, cErr)
	}
	if rErr != nil {
		if rErr.Error() != cErr.Error() {
			t.Fatalf("%q: divergent errors:\n  row:      %v\n  columnar: %v", base+lim, rErr, cErr)
		}
		return false
	}
	if cNode.Leaf().Kind != plan.ColumnarScan {
		t.Fatalf("%q: USING COLUMNAR compiled to %v", base+lim, cNode.Leaf().Kind)
	}
	if rNode.Leaf().Kind == plan.ColumnarScan {
		t.Fatalf("%q: USING ROW compiled to a columnar scan", base+lim)
	}
	if !reflect.DeepEqual(rRes, cRes) {
		t.Fatalf("%q: engines diverge\nrow:      %+v\ncolumnar: %+v\nrow plan:\n%s\ncolumnar plan:\n%s",
			base+lim, rRes, cRes, rNode.Render(), cNode.Render())
	}
	return true
}

// TestDifferentialRowColumnar is the seeded sweep: every history class ×
// both valid-time kinds × a random query mix, row vs columnar.
func TestDifferentialRowColumnar(t *testing.T) {
	classes := []string{"degenerate", "sequential", "vtregular", "degraded", "random"}
	stamps := []struct {
		kind element.TimestampKind
		name string
	}{
		{element.EventStamp, "ev"},
		{element.IntervalStamp, "iv"},
	}
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := New(cachedConfig(t.TempDir()))
			rng := rand.New(rand.NewSource(seed))
			for _, st := range stamps {
				for _, class := range classes {
					name := fmt.Sprintf("d_%s_%s", class, st.name)
					e, vtHi := buildDiffRelation(t, c, name, class, st.kind, rng)
					ttHi := int64(10 * (520 + 60)) // logical clock: step 10 per transaction
					ok := 0
					for i := 0; i < 30; i++ {
						base, lim := genAggQuery(rng, name, st.kind == element.IntervalStamp, vtHi, ttHi)
						if runDiff(t, e, base, lim) {
							ok++
						}
					}
					if ok == 0 {
						t.Fatalf("%s: no generated query evaluated successfully", name)
					}
				}
			}
		})
	}
}

// TestDifferentialUnderConcurrentMutation repeats the row/columnar
// comparison on pinned snapshot views while writers churn the live entry
// with inserts, deletes, vacuum, compaction and respecialization. The
// pinned view makes the comparison deterministic; the -race build asserts
// the batch reader and both fold engines never touch mutating state.
func TestDifferentialUnderConcurrentMutation(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(diffSchema("churn", element.EventStamp))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	seedRng := rand.New(rand.NewSource(7))
	var mu sync.Mutex
	var esList []surrogate.Surrogate
	var vtCur int64
	insert := func(rng *rand.Rand) error {
		mu.Lock()
		vtCur += 7
		// Wrap rather than grow forever: an unpaused inserter on a fast
		// machine would otherwise push the vt extent past width*MaxWindows
		// and the live window(50) query would trip the result-size guard.
		if vtCur > 1<<20 {
			vtCur = 7
		}
		vt := vtCur
		mu.Unlock()
		el, err := insert(e, relation.Insertion{
			VT:      element.EventAt(chronon.Chronon(vt)),
			Varying: diffValues(rng),
		})
		if err != nil {
			return err
		}
		mu.Lock()
		esList = append(esList, el.ES)
		mu.Unlock()
		return nil
	}
	for i := 0; i < 400; i++ {
		if err := insert(seedRng); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(seed int64, pause time.Duration, fn func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				fn(rng)
				time.Sleep(pause)
			}
		}()
	}
	spawn(11, 0, func(rng *rand.Rand) { _ = insert(rng) })
	spawn(12, time.Millisecond, func(rng *rand.Rand) {
		mu.Lock()
		var es surrogate.Surrogate
		if len(esList) > 0 {
			es = esList[rng.Intn(len(esList))]
		}
		mu.Unlock()
		if es != 0 {
			_ = remove(e, es) // repeats legitimately fail; the race detector is the assertion
		}
	})
	spawn(13, time.Millisecond, func(*rand.Rand) { e.Compact() })
	spawn(14, 2*time.Millisecond, func(*rand.Rand) { _, _, _ = e.Respecialize() })
	var horizon int64
	spawn(15, 2*time.Millisecond, func(*rand.Rand) {
		horizon += 10
		_, _ = e.Vacuum(chronon.Chronon(horizon))
	})

	bases := []string{
		"select count(*), sum(v_int) from churn group by window(50)",
		"select min(v_int), max(v_float) from churn when valid during [100, 2000) group by window(100)",
		"select count(v_str) from churn as of 1500 group by window(64, rolling 3)",
		"select sum(v_float) from churn where v_int > 0 group by window(128, cumulative)",
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		base := bases[i%len(bases)]
		qRow, err := tsql.Parse(base + " using row")
		if err != nil {
			t.Fatal(err)
		}
		qCol, err := tsql.Parse(base + " using columnar")
		if err != nil {
			t.Fatal(err)
		}
		// Pin one published view: both engines read the same snapshot no
		// matter what the writers do meanwhile.
		v := e.view.Load()
		event := v.schema.ValidTime == element.EventStamp
		specRow, err := tsql.BuildAggSpec(qRow, v.schema)
		if err != nil {
			t.Fatal(err)
		}
		specCol, err := tsql.BuildAggSpec(qCol, v.schema)
		if err != nil {
			t.Fatal(err)
		}
		nodeRow := tsql.Compile(qRow, v.engine.Access())
		nodeCol := tsql.Compile(qCol, v.engine.Access())
		rRes, _, rErr := v.engine.AggregateCtx(ctx, nodeRow, tsql.PlanQuery(qRow), specRow, event)
		cRes, _, cErr := v.engine.AggregateCtx(ctx, nodeCol, tsql.PlanQuery(qCol), specCol, event)
		if (rErr != nil) != (cErr != nil) || (rErr != nil && rErr.Error() != cErr.Error()) {
			t.Fatalf("iteration %d %q: row err %v, columnar err %v", i, base, rErr, cErr)
		}
		if rErr == nil && !reflect.DeepEqual(rRes, cRes) {
			t.Fatalf("iteration %d %q: engines diverge on a pinned view\nrow:      %+v\ncolumnar: %+v",
				i, base, rRes, cRes)
		}
		// Also drive the public read path under churn; epochs move between
		// the two calls, so only clean execution is asserted here.
		if i%8 == 0 {
			if _, _, _, err := e.SelectCtx(ctx, qRow); err != nil {
				t.Fatalf("live SelectCtx: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
