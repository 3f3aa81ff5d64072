package vec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// ev builds a current event element with one varying value.
func ev(i int, vt int64, v element.Value) *element.Element {
	return &element.Element{
		ES: surrogate.Surrogate(i + 1), OS: 1,
		TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever,
		VT:      element.EventAt(chronon.Chronon(vt)),
		Varying: []element.Value{v},
	}
}

// iv builds a current interval element with one varying value.
func iv(i int, lo, hi int64, v element.Value) *element.Element {
	e := ev(i, 0, v)
	e.VT = element.SpanOf(chronon.Chronon(lo), chronon.Chronon(hi))
	return e
}

func getVar(e *element.Element) element.Value { return e.Varying[0] }

func rowAgg(t *testing.T, spec *Spec, elems []*element.Element) *AggResult {
	t.Helper()
	res, err := RowAggregate(context.Background(), spec, elems)
	if err != nil {
		t.Fatalf("RowAggregate: %v", err)
	}
	return res
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 1}, {-1, 10, -1},
		{-10, 10, -1}, {-11, 10, -2}, {25, 7, 3}, {-25, 7, -4},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTumblingCountSum(t *testing.T) {
	elems := []*element.Element{
		ev(0, 5, element.Int(1)),
		ev(1, 7, element.Int(2)),
		ev(2, 25, element.Int(4)),
		// Window [30, 40) stays empty: tumbling must skip it.
		ev(3, 45, element.Int(8)),
	}
	spec := &Spec{Width: 10, Aggs: []AggCall{
		{Kind: AggCount}, {Kind: AggSum, Col: "v", Get: getVar},
	}}
	res := rowAgg(t, spec, elems)
	wantStart := []int64{0, 20, 40}
	wantEnd := []int64{10, 30, 50}
	if !reflect.DeepEqual(starts(res), wantStart) || !reflect.DeepEqual(ends(res), wantEnd) {
		t.Fatalf("windows [%v, %v), want [%v, %v)", starts(res), ends(res), wantStart, wantEnd)
	}
	wantVals := [][]element.Value{
		{element.Int(2), element.Int(3)},
		{element.Int(1), element.Int(4)},
		{element.Int(1), element.Int(8)},
	}
	if !reflect.DeepEqual(vals(res), wantVals) {
		t.Fatalf("vals %v, want %v", vals(res), wantVals)
	}
}

func TestIntervalSpansWindows(t *testing.T) {
	// One interval [5, 25) overlaps windows 0, 1 and 2 and must count in
	// each; the exclusive end keeps [20, 30) the last window, not [30, 40).
	elems := []*element.Element{iv(0, 5, 25, element.Int(1))}
	spec := &Spec{Width: 10, Aggs: []AggCall{{Kind: AggCount}}}
	res := rowAgg(t, spec, elems)
	if want := []int64{0, 10, 20}; !reflect.DeepEqual(starts(res), want) {
		t.Fatalf("starts %v, want %v", starts(res), want)
	}
}

func TestRollingAndCumulative(t *testing.T) {
	elems := []*element.Element{
		ev(0, 5, element.Int(1)),
		ev(1, 15, element.Int(2)),
		ev(2, 35, element.Int(4)),
	}
	roll := &Spec{Width: 10, WKind: Rolling, K: 2, Aggs: []AggCall{{Kind: AggSum, Col: "v", Get: getVar}}}
	res := rowAgg(t, roll, elems)
	// Base windows 0..3; each row sums the 2 windows ending there.
	wantVals := [][]element.Value{
		{element.Int(1)}, {element.Int(3)}, {element.Int(2)}, {element.Int(4)},
	}
	if !reflect.DeepEqual(vals(res), wantVals) {
		t.Fatalf("rolling vals %v, want %v", vals(res), wantVals)
	}
	if starts(res)[1] != 0 || ends(res)[1] != 20 {
		t.Fatalf("rolling span [%d, %d), want [0, 20)", starts(res)[1], ends(res)[1])
	}

	cum := &Spec{Width: 10, WKind: Cumulative, Aggs: []AggCall{{Kind: AggSum, Col: "v", Get: getVar}}}
	res = rowAgg(t, cum, elems)
	wantVals = [][]element.Value{
		{element.Int(1)}, {element.Int(3)}, {element.Int(3)}, {element.Int(7)},
	}
	if !reflect.DeepEqual(vals(res), wantVals) {
		t.Fatalf("cumulative vals %v, want %v", vals(res), wantVals)
	}
	for i := range starts(res) {
		if starts(res)[i] != 0 {
			t.Fatalf("cumulative row %d starts at %d, want 0", i, starts(res)[i])
		}
	}
}

func TestMinMaxAndNulls(t *testing.T) {
	elems := []*element.Element{
		ev(0, 5, element.Float(2.5)),
		ev(1, 6, element.Null()),
		ev(2, 7, element.Float(-1.5)),
	}
	spec := &Spec{Width: 10, Aggs: []AggCall{
		{Kind: AggMin, Col: "v", Get: getVar},
		{Kind: AggMax, Col: "v", Get: getVar},
		{Kind: AggCount, Col: "v", Get: getVar},
		{Kind: AggCount},
	}}
	res := rowAgg(t, spec, elems)
	want := []element.Value{element.Float(-1.5), element.Float(2.5), element.Int(2), element.Int(3)}
	if !reflect.DeepEqual(vals(res)[0], want) {
		t.Fatalf("vals %v, want %v", vals(res)[0], want)
	}
	// All-null column: sum and extremes are NULL, count(col) is 0.
	nulls := []*element.Element{ev(0, 5, element.Null())}
	spec = &Spec{Width: 10, Aggs: []AggCall{
		{Kind: AggSum, Col: "v", Get: getVar},
		{Kind: AggMin, Col: "v", Get: getVar},
		{Kind: AggCount, Col: "v", Get: getVar},
	}}
	res = rowAgg(t, spec, nulls)
	for i := 0; i < 2; i++ {
		if !vals(res)[0][i].IsNull() {
			t.Fatalf("val %d = %v, want NULL", i, vals(res)[0][i])
		}
	}
	if n, _ := vals(res)[0][2].IntVal(); n != 0 {
		t.Fatalf("count(v) = %d, want 0", n)
	}
}

func TestMixedSumRejected(t *testing.T) {
	elems := []*element.Element{
		ev(0, 5, element.Int(1)),
		ev(1, 6, element.Float(2.0)),
	}
	spec := &Spec{Width: 10, Aggs: []AggCall{{Kind: AggSum, Col: "v", Get: getVar}}}
	_, err := RowAggregate(context.Background(), spec, elems)
	if err == nil || !strings.Contains(err.Error(), "mixed int and float") {
		t.Fatalf("err = %v, want mixed-sum rejection", err)
	}
}

func TestMaxWindowsGuard(t *testing.T) {
	// A single interval spanning far more than MaxWindows windows trips
	// the guard with a deterministic error, not an OOM.
	wide := iv(0, 0, (MaxWindows+10)*10, element.Int(1))
	spec := &Spec{Width: 10, Aggs: []AggCall{{Kind: AggCount}}}
	_, err := RowAggregate(context.Background(), spec, []*element.Element{wide})
	if err == nil || !strings.Contains(err.Error(), "windows") {
		t.Fatalf("err = %v, want span guard", err)
	}
	agg, err := NewColAgg(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	fillOne(&b, wide)
	var stats ExecStats
	if err := agg.Consume(&b, &stats); err == nil || !strings.Contains(err.Error(), "windows") {
		t.Fatalf("columnar err = %v, want span guard", err)
	}
}

// fillOne loads a single element into a batch the way BatchReader does.
func fillOne(b *Batch, e *element.Element) {
	b.N = 1
	b.Elems = append(b.Elems[:0], e)
	b.TTStart[0], b.TTEnd[0] = int64(e.TTStart), int64(e.TTEnd)
	if c, ok := e.VT.Event(); ok {
		b.VTStart[0], b.VTEnd[0] = int64(c), int64(c)+1
	} else {
		b.VTStart[0], b.VTEnd[0] = int64(e.VT.Start()), int64(e.VT.End())
	}
}

func TestFilterApplyMatchesElementPredicates(t *testing.T) {
	open := ev(0, 5, element.Int(1))
	closed := ev(1, 6, element.Int(2))
	closed.TTEnd = 100

	check := func(f Filter, e *element.Element, want bool) {
		t.Helper()
		var b Batch
		fillOne(&b, e)
		got := len(f.Apply(&b, nil)) == 1
		if got != want {
			t.Errorf("filter %+v on %v: got %v, want %v", f, e, got, want)
		}
	}
	check(Filter{}, open, true)
	check(Filter{}, closed, false)
	for _, tt := range []int64{0, 20, 99, 100, 101} {
		f := Filter{AsOf: true, TT: tt}
		check(f, open, open.PresentAt(chronon.Chronon(tt)))
		check(f, closed, closed.PresentAt(chronon.Chronon(tt)))
	}
	check(Filter{HasVT: true, VTLo: 0, VTHi: 5}, open, false) // vt=5 is [5,6)
	check(Filter{HasVT: true, VTLo: 5, VTHi: 6}, open, true)
	check(Filter{HasVT: true, VTLo: 6, VTHi: 10}, open, false)
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Width: 0, Aggs: []AggCall{{Kind: AggCount}}},
		{Width: MaxWidth + 1, Aggs: []AggCall{{Kind: AggCount}}},
		{Width: 10, WKind: Rolling, K: 0, Aggs: []AggCall{{Kind: AggCount}}},
		{Width: 10, WKind: Rolling, K: MaxRolling + 1, Aggs: []AggCall{{Kind: AggCount}}},
		{Width: 10},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("spec %d validated, want error", i)
		}
	}
}

// TestConcurrentRowAggregate runs the row engine from many goroutines over
// one shared element slice; the engine must be read-only over its input
// (the -race build is the real assertion here).
func TestConcurrentRowAggregate(t *testing.T) {
	var elems []*element.Element
	for i := 0; i < 500; i++ {
		elems = append(elems, ev(i, int64(i%97), element.Int(int64(i))))
	}
	spec := &Spec{Width: 10, Aggs: []AggCall{{Kind: AggCount}, {Kind: AggSum, Col: "v", Get: getVar}}}
	ref := rowAgg(t, spec, elems)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RowAggregate(context.Background(), spec, elems)
			if err != nil {
				t.Errorf("RowAggregate: %v", err)
				return
			}
			if !reflect.DeepEqual(res, ref) {
				t.Error("concurrent run diverged from reference")
			}
		}()
	}
	wg.Wait()
}

// TestRollingVisitsOnlyPopulatedWindows: a rolling row merges the populated
// windows among the K ending at it, not K lookups, so two elements a whole
// extent apart answer at once — the row count, not K·rows, is the cost.
// Rolling and cumulative answers are held to ones built from the tumbling
// windows by hand (a cumulative row is a rolling one as long as the span).
func TestRollingVisitsOnlyPopulatedWindows(t *testing.T) {
	aggs := []AggCall{{Kind: AggCount}, {Kind: AggSum, Col: "v", Get: getVar}, {Kind: AggMax, Col: "v", Get: getVar}}
	far := []*element.Element{ev(0, 0, element.Int(3)), ev(1, MaxRolling-1, element.Int(5))}
	spec := &Spec{Width: 1, WKind: Rolling, K: MaxRolling, Aggs: aggs}
	best := time.Duration(1 << 62)
	var res *AggResult
	for i := 0; i < 3; i++ {
		start := time.Now()
		res = rowAgg(t, spec, far)
		best = min(best, time.Since(start))
	}
	t.Logf("%d rows in %v (best of 3)", len(starts(res)), best)
	if int64(len(starts(res))) != MaxRolling || best > 50*time.Millisecond*raceSlowdown {
		t.Fatalf("%d rows in %v", len(starts(res)), best)
	}
	if last := vals(res)[len(vals(res))-1]; !reflect.DeepEqual(last, []element.Value{element.Int(2), element.Int(8), element.Int(5)}) {
		t.Fatalf("last row %v", last)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var elems []*element.Element
		for i, vt := 0, int64(0); i < 40; i++ {
			vt += rng.Int63n(60)
			elems = append(elems, ev(i, vt, element.Int(rng.Int63n(100)-50)))
		}
		width, k := 1+rng.Int63n(20), 1+rng.Int63n(12)
		tumbling := rowAgg(t, &Spec{Width: width, Aggs: aggs}, elems)
		first, last := starts(tumbling)[0]/width, starts(tumbling)[len(starts(tumbling))-1]/width
		got := rowAgg(t, &Spec{Width: width, WKind: Rolling, K: k, Aggs: aggs}, elems)
		if trial%2 == 1 {
			got = rowAgg(t, &Spec{Width: width, WKind: Cumulative, Aggs: aggs}, elems)
			k = last - first + 1
		}
		if int64(len(starts(got))) != last-first+1 {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(starts(got)), last-first+1)
		}
		for r, wi := 0, first; wi <= last; r, wi = r+1, wi+1 {
			want := []element.Value{element.Int(0), element.Null(), element.Null()}
			var sum int64
			for j := range starts(tumbling) {
				if at := starts(tumbling)[j] / width; at <= wi-k || at > wi {
					continue
				}
				v := vals(tumbling)[j]
				n, _ := want[0].IntVal()
				c, _ := v[0].IntVal()
				want[0] = element.Int(n + c)
				if s, ok := v[1].IntVal(); ok {
					sum += s
					want[1] = element.Int(sum)
				}
				if !v[2].IsNull() && (want[2].IsNull() || v[2].Compare(want[2]) > 0) {
					want[2] = v[2]
				}
			}
			start := (wi - k + 1) * width
			if trial%2 == 1 {
				start = first * width
			}
			if starts(got)[r] != start || ends(got)[r] != (wi+1)*width || !reflect.DeepEqual(vals(got)[r], want) {
				t.Fatalf("trial %d, row %d: [%d, %d) %v, want [%d, %d) %v",
					trial, r, starts(got)[r], ends(got)[r], vals(got)[r], start, (wi+1)*width, want)
			}
		}
	}
}

// TestEmitHonoursTheContext: a dense rolling float sum is quadratic in K —
// float addition does not subtract back, so each row merges its K windows;
// emit polls the context as it goes and gives up with its error.
func TestEmitHonoursTheContext(t *testing.T) {
	const span = 8192
	elems := make([]*element.Element, span)
	for i := range elems {
		elems[i] = ev(i, int64(i), element.Float(float64(i)))
	}
	spec := &Spec{Width: 1, WKind: Rolling, K: span, Aggs: []AggCall{{Kind: AggSum, Col: "v", Get: getVar}}}
	agg, err := NewColAgg(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	if err := agg.ConsumeRows(elems, &stats); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := agg.ResultCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dense rolling emit under a 5 ms deadline: %v", err)
	}
	if took := time.Since(start); took > time.Second*raceSlowdown {
		t.Fatalf("gave up after %v", took)
	}
}

// starts, ends and vals read a result's window bounds and values back out
// of its rows.
func starts(r *AggResult) []int64 {
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		c, _ := row[0].TimeVal()
		out[i] = int64(c)
	}
	return out
}

func ends(r *AggResult) []int64 {
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		c, _ := row[1].TimeVal()
		out[i] = int64(c)
	}
	return out
}

func vals(r *AggResult) [][]element.Value {
	out := make([][]element.Value, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[2:]
	}
	return out
}
