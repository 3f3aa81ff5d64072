package vec

// Tests of what a fold keeps past its answer: the sliding rolling emit
// against the per-row merge that defines it, the merge restricted to the
// windows a clamp leaves whole, and cells in window order — taken, spliced
// and emitted — against the fold of everything.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/element"
)

// foldAll folds elems with the engine's operator (sliding emit).
func foldAll(t *testing.T, spec *Spec, elems []*element.Element) (*AggResult, error) {
	t.Helper()
	agg, err := NewColAgg(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	for lo := 0; lo < len(elems); lo += BatchSize {
		if err := agg.ConsumeRows(elems[lo:min(lo+BatchSize, len(elems))], &st); err != nil {
			return nil, err
		}
	}
	return agg.Result()
}

// printed renders a result so that equal prints mean equal bits: -0 and +0
// print apart, every NaN alike.
func printed(res *AggResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res)
}

// TestSlidingRollingIsTheMerge: the engine's rolling emit — counts and
// integer sums by addition and subtraction, extremes by a monotone deque,
// float sums and NaN extremes merged per row — prints what the reference's
// per-row merge prints, bit for bit, over sparse and dense spans, extremes
// that tie (the earlier window's wins: -0 against +0 tells them apart),
// NULLs, and histories whose lanes conflict (the same error, or none where
// no row holds both).
func TestSlidingRollingIsTheMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := []func() element.Value{
		func() element.Value { return element.Int(rng.Int63n(7) - 3) },
		func() element.Value { return element.Int(math.MaxInt64 - rng.Int63n(3)) }, // wraps
		func() element.Value { return element.Float(float64(rng.Intn(5)) / 10) },
		func() element.Value { return element.Float(math.Copysign(0, float64(rng.Intn(2)*2-1))) },
		func() element.Value { return element.String_(string(rune('a' + rng.Intn(3)))) },
	}
	aggs := []AggCall{
		{Kind: AggCount},
		{Kind: AggCount, Col: "v", Ref: getVar},
		{Kind: AggSum, Col: "v", Ref: getVar},
		{Kind: AggMin, Col: "v", Ref: getVar},
		{Kind: AggMax, Col: "v", Ref: getVar},
	}
	conflicts := 0
	for trial := 0; trial < 400; trial++ {
		pick := values[rng.Intn(len(values))]
		mixed := rng.Intn(8) == 0 // a second kind somewhere
		var elems []*element.Element
		vt := int64(rng.Intn(50)) - 25
		for i := 0; i < 20+rng.Intn(200); i++ {
			vt += rng.Int63n(1 + int64(rng.Intn(12)))
			v := pick()
			switch {
			case rng.Intn(15) == 0:
				v = element.Null()
			case mixed && rng.Intn(20) == 0:
				v = values[rng.Intn(len(values))]()
			case rng.Intn(60) == 0:
				v = element.Float(math.NaN())
				if _, ok := pick().FloatVal(); !ok {
					v = pick()
				}
			}
			e := ev(i, vt, v)
			if rng.Intn(6) == 0 {
				e = iv(i, vt, vt+1+rng.Int63n(40), v)
			}
			elems = append(elems, e)
		}
		call := aggs[rng.Intn(len(aggs))]
		spec := &Spec{Width: 1 + rng.Int63n(9), WKind: Rolling, K: 1 + rng.Int63n(12), Aggs: []AggCall{aggs[0], call}}
		if _, ok := pick().FloatVal(); ok || rng.Intn(2) == 0 {
			spec.Aggs = append(spec.Aggs, aggs[2], aggs[3], aggs[4])
		}
		if call.Kind == AggSum && pick().Kind() == element.KindString {
			continue // a sum over strings fails the same in both and says nothing
		}
		ref, refErr := RowAggregate(context.Background(), spec, elems)
		got, err := foldAll(t, spec, elems)
		if refErr != nil {
			conflicts++
		}
		if want, have := printed(ref, refErr), printed(got, err); want != have {
			t.Fatalf("trial %d (%v width %d k %d): sliding\n %s\nper-row merge\n %s", trial, spec.WKind, spec.Width, spec.K, have, want)
		}
	}
	if conflicts == 0 {
		t.Fatal("no trial had lanes that conflict")
	}
}

// TestDenseRollingIsLinear bounds the cost of a statement tsql accepts: a
// dense window(1, rolling 65536) — 65,536 populated windows, each row over
// up to 65,536 of them — emits in time linear in its rows (the per-row merge
// took ≈ 12 s), and its last rows are the sums they must be.
func TestDenseRollingIsLinear(t *testing.T) {
	const span = int(MaxRolling)
	elems := make([]*element.Element, span)
	for i := range elems {
		elems[i] = ev(i, int64(i), element.Int(int64(i%10)))
	}
	spec := &Spec{Width: 1, WKind: Rolling, K: MaxRolling, Aggs: []AggCall{
		{Kind: AggCount}, {Kind: AggSum, Col: "v", Ref: getVar}, {Kind: AggMax, Col: "v", Ref: getVar}}}
	agg, err := NewColAgg(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	if err := agg.ConsumeRows(elems, &st); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := agg.Result()
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows in %v", len(starts(res)), took)
	if len(starts(res)) != span || took > 500*time.Millisecond*raceSlowdown {
		t.Fatalf("%d rows in %v", len(starts(res)), took)
	}
	for _, r := range []int{0, 9, span / 2, span - 1} {
		var sum int64
		for i := 0; i <= r; i++ {
			sum += int64(i % 10)
		}
		want := fmt.Sprint([]element.Value{element.Int(int64(r + 1)), element.Int(sum), element.Int(int64(min(r, 9)))})
		if got := fmt.Sprint(vals(res)[r]); got != want {
			t.Fatalf("row %d: %s, want %s", r, got, want)
		}
	}
}

// TestMergeWholeIsTheClampedFold: a chunk's partial, taken under no clamp
// and merged restricted to the windows a clamp leaves whole, is what folding
// the chunk's rows under the clamp puts there; the merge refuses exactly
// when the partial populates a window the clamp cuts, and then the fold is
// the answer. Aligned and unaligned clamps, intervals across windows.
func TestMergeWholeIsTheClampedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	aggs := []AggCall{{Kind: AggCount}, {Kind: AggSum, Col: "v", Ref: getVar}, {Kind: AggMax, Col: "v", Ref: getVar}}
	accepted, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		var elems []*element.Element
		vt := int64(0)
		for i := 0; i < 4*BatchSize/4; i++ {
			vt += rng.Int63n(8)
			e := ev(i, vt, element.Int(rng.Int63n(100)))
			if rng.Intn(5) == 0 {
				e = iv(i, vt, vt+1+rng.Int63n(120), element.Int(rng.Int63n(100)))
			}
			elems = append(elems, e)
		}
		width := 10 + rng.Int63n(60)
		lo := rng.Int63n(vt)
		hi := lo + 1 + rng.Int63n(vt-lo+50)
		if rng.Intn(2) == 0 { // aligned
			lo, hi = lo/width*width, (hi/width+1)*width
		}
		whole := &Spec{Width: width, Aggs: aggs}
		clamped := &Spec{Width: width, Aggs: aggs, Filter: Filter{HasVT: true, VTLo: lo, VTHi: hi}}
		want := printed(RowAggregate(context.Background(), clamped, elems))

		agg, _ := NewColAgg(clamped)
		alone, _ := NewColAgg(whole)
		var st ExecStats
		for c := 0; c < len(elems); c += 64 {
			chunk := elems[c:min(c+64, len(elems))]
			alone.Reset()
			if err := alone.ConsumeRows(chunk, &st); err != nil {
				t.Fatal(err)
			}
			p, _ := alone.Cells()
			if agg.MergeWhole(p) {
				accepted++
				continue
			}
			refused++
			if err := agg.ConsumeRows(chunk, &st); err != nil {
				t.Fatal(err)
			}
		}
		if got := printed(agg.Result()); got != want {
			t.Fatalf("trial %d, width %d, clamp [%d, %d): merged\n %s\nclamped fold\n %s", trial, width, lo, hi, got, want)
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("the merge accepted %d chunks and refused %d; the test means both", accepted, refused)
	}
}

// TestSplicedCellsAreTheFold: the cells of a fold, taken in window order, with
// the windows a change reached folded again under a clamp narrowed to them
// and spliced in, emit under every window mode what the fold of the changed
// history emits.
func TestSplicedCellsAreTheFold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	aggs := []AggCall{{Kind: AggCount}, {Kind: AggSum, Col: "v", Ref: getVar}, {Kind: AggMin, Col: "v", Ref: getVar}}
	for trial := 0; trial < 200; trial++ {
		width := 5 + rng.Int63n(40)
		var elems []*element.Element
		add := func(lo, hi int64) {
			i := len(elems)
			e := ev(i, lo, element.Int(rng.Int63n(50)))
			if hi > lo+1 {
				e = iv(i, lo, hi, element.Int(rng.Int63n(50)))
			}
			elems = append(elems, e)
		}
		for i := 0; i < 150; i++ {
			lo := rng.Int63n(2000)
			add(lo, lo+1+rng.Int63n(1+int64(rng.Intn(2))*60))
		}
		base, _ := NewColAgg(&Spec{Width: width, Aggs: aggs})
		var st ExecStats
		if err := base.ConsumeRows(elems, &st); err != nil {
			t.Fatal(err)
		}
		cells, exact := base.Cells()
		if !exact {
			t.Fatal("integer cells taken as inexact")
		}
		// A change: new elements, and some closed, in a few places.
		var runs []WindowRun
		for range 1 + rng.Intn(3) {
			lo := rng.Int63n(2200)
			hi := lo + 1 + rng.Int63n(80)
			add(lo, hi)
			if rng.Intn(2) == 0 {
				k := rng.Intn(len(elems))
				old := elems[k]
				closed := *old
				closed.TTEnd = closed.TTStart + 1
				elems[k] = &closed
				olo, ohi := validSpan(old)
				runs = append(runs, WindowRun{Window(olo, width), Window(ohi-1, width)})
			}
			runs = append(runs, WindowRun{Window(lo, width), Window(hi-1, width)})
		}
		runs = coalesce(runs)
		for _, mode := range []WindowKind{Tumbling, Rolling, Cumulative} {
			spec := &Spec{Width: width, WKind: mode, K: 3, Aggs: aggs}
			run := *spec
			agg, _ := NewColAgg(&run)
			for _, r := range runs {
				run.Filter = Filter{HasVT: true, VTLo: r.Lo * width, VTHi: (r.Hi + 1) * width}
				if err := agg.ConsumeRows(elems, &st); err != nil {
					t.Fatal(err)
				}
			}
			spliced, exact := agg.Splice(cells, runs)
			if !exact {
				t.Fatal("integer cells spliced as inexact")
			}
			want := printed(RowAggregate(context.Background(), spec, elems))
			if got := printed(spliced.Emit(context.Background(), spec)); got != want {
				t.Fatalf("trial %d, %v, runs %v: spliced\n %s\nfold\n %s", trial, mode, runs, got, want)
			}
		}
	}
}

// coalesce sorts runs and merges those that overlap or touch.
func coalesce(runs []WindowRun) []WindowRun {
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].Lo < runs[j-1].Lo; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	out := runs[:0]
	for _, r := range runs {
		if k := len(out) - 1; k >= 0 && r.Lo <= out[k].Hi+1 {
			out[k].Hi = max(out[k].Hi, r.Hi)
			continue
		}
		out = append(out, r)
	}
	return out
}
