package vec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/element"
)

// fillRows loads elements into a batch the way BatchReader does.
func fillRows(b *Batch, es []*element.Element) {
	b.N, b.Elems = len(es), es
	for i, e := range es {
		b.TTStart[i], b.TTEnd[i] = int64(e.TTStart), int64(e.TTEnd)
		b.VTStart[i], b.VTEnd[i] = validSpan(e)
	}
}

// foldChunks runs the columnar fold over elems cut into chunks. With
// viaPartials each chunk is folded on its own, exported and merged —
// falling back to consuming the chunk where Cells or Merge decline, as
// the engine does — otherwise every chunk is consumed into one state.
func foldChunks(t *testing.T, spec *Spec, elems []*element.Element, chunk int, viaPartials bool) (res *AggResult, merged int, err error) {
	t.Helper()
	agg, aerr := NewColAgg(spec)
	if aerr != nil {
		t.Fatal(aerr)
	}
	alone, _ := NewColAgg(spec)
	var b Batch
	var st ExecStats
	for lo := 0; lo < len(elems); lo += chunk {
		fillRows(&b, elems[lo:min(lo+chunk, len(elems))])
		if viaPartials {
			alone.Reset()
			if alone.Consume(&b, &st) == nil {
				if p, exact := alone.Cells(); exact && agg.Merge(p) {
					merged++
					continue
				}
			}
		}
		if err := agg.Consume(&b, &st); err != nil {
			return nil, merged, err
		}
	}
	res, err = agg.Result()
	return res, merged, err
}

// TestPartialMergeEqualsFold: integer sums, counts and extremes folded
// chunk by chunk and merged equal the one-pass fold and the row engine,
// for every window mode over one set of partials' worth of cells.
func TestPartialMergeEqualsFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var elems []*element.Element
	vt := int64(-300)
	for i := 0; i < 1500; i++ {
		vt += rng.Int63n(9)
		v := element.Int(rng.Int63n(50) - 10)
		if rng.Intn(8) == 0 {
			v = element.Null()
		}
		e := ev(i, vt, v)
		if rng.Intn(3) == 0 {
			e = iv(i, vt, vt+1+rng.Int63n(40), v)
		}
		if rng.Intn(6) == 0 {
			e.TTEnd = e.TTStart + 5 // closed: must contribute nothing
		}
		elems = append(elems, e)
	}
	aggs := []AggCall{
		{Kind: AggCount},
		{Kind: AggCount, Col: "v", Ref: getVar},
		{Kind: AggSum, Col: "v", Ref: getVar},
		{Kind: AggMin, Col: "v", Ref: getVar},
		{Kind: AggMax, Col: "v", Ref: getVar},
	}
	for _, mode := range []struct {
		kind WindowKind
		k    int64
	}{{Tumbling, 0}, {Rolling, 3}, {Cumulative, 0}} {
		spec := &Spec{Width: 64, WKind: mode.kind, K: mode.k, Aggs: aggs}
		want := rowAgg(t, spec, elems)
		direct, _, err := foldChunks(t, spec, elems, 256, false)
		if err != nil {
			t.Fatal(err)
		}
		viaParts, merged, err := foldChunks(t, spec, elems, 256, true)
		if err != nil {
			t.Fatal(err)
		}
		if merged != 6 {
			t.Fatalf("%v: merged %d chunks, want all 6", mode.kind, merged)
		}
		if !reflect.DeepEqual(direct, want) || !reflect.DeepEqual(viaParts, want) {
			t.Fatalf("%v: folds diverge\nrow:      %+v\ndirect:   %+v\npartials: %+v", mode.kind, want, direct, viaParts)
		}
	}
}

// TestConsumeRowsIsTheDefinition: the row kernel, which folds through the
// hot-window memo, gives the reference engine's answer bit for bit — float
// sums in arrival order, NaN extremes, intervals across windows, a clamp, AS
// OF and closed elements — and fails with its text on a mixed history.
func TestConsumeRowsIsTheDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var elems []*element.Element
	vt := int64(-500)
	for i := 0; i < 2000; i++ {
		vt += rng.Int63n(7)
		v := element.Float(float64(rng.Intn(1000))/10 - 20)
		switch rng.Intn(40) {
		case 0:
			v = element.Null()
		case 1:
			v = element.Float(math.NaN())
		}
		e := ev(i, vt, v)
		if rng.Intn(4) == 0 {
			e = iv(i, vt-rng.Int63n(30), vt+1+rng.Int63n(200), v)
		}
		if rng.Intn(6) == 0 {
			e.TTEnd = e.TTStart + 35
		}
		elems = append(elems, e)
	}
	aggs := []AggCall{
		{Kind: AggCount},
		{Kind: AggSum, Col: "v", Ref: getVar},
		{Kind: AggMin, Col: "v", Ref: getVar},
		{Kind: AggMax, Col: "v", Ref: getVar},
	}
	specs := []*Spec{
		{Width: 16, Aggs: aggs},
		{Width: 50, WKind: Rolling, K: 4, Aggs: aggs},
		{Width: 7, WKind: Cumulative, Aggs: aggs, Filter: Filter{HasVT: true, VTLo: 900, VTHi: 4100}},
		{Width: 64, Aggs: aggs, Filter: Filter{AsOf: true, TT: 9000}},
	}
	fold := func(spec *Spec, elems []*element.Element) (*AggResult, error) {
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
	for _, spec := range specs {
		// Printed, not DeepEqual: a NaN extreme is the same answer.
		want := fmt.Sprint(rowAgg(t, spec, elems))
		got, err := fold(spec, elems)
		if err != nil || fmt.Sprint(got) != want {
			t.Fatalf("%v window %d, filter %+v: the row kernel diverges from the reference (err %v)", spec.WKind, spec.Width, spec.Filter, err)
		}
	}
	mixed := append(elems[:300:300], ev(300, int64(elems[299].VT.Start()), element.Int(1)))
	_, wantErr := RowAggregate(context.Background(), specs[0], mixed)
	if _, err := fold(specs[0], mixed); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("mixed sum: kernel %v, reference %v", err, wantErr)
	}
}

// TestExportDeclinesInexactLanes: a float sum, or a NaN extreme, is never
// exported — merging it could differ from the arrival-order fold in the
// last bit (or, for NaN, in which value survives) — and falling back to
// consuming keeps the answer bit-identical to the row engine's.
func TestExportDeclinesInexactLanes(t *testing.T) {
	// 0.1 + 0.2 + 0.3 differs in the last bit by association.
	floats := []*element.Element{
		ev(0, 1, element.Float(0.1)), ev(1, 2, element.Float(0.2)),
		ev(2, 3, element.Float(0.3)), ev(3, 4, element.Float(0.4)),
	}
	sum := &Spec{Width: 100, Aggs: []AggCall{{Kind: AggSum, Col: "v", Ref: getVar}}}
	got, merged, err := foldChunks(t, sum, floats, 2, true)
	if err != nil || merged != 0 {
		t.Fatalf("float sum: merged %d chunks (err %v), want none", merged, err)
	}
	if want := rowAgg(t, sum, floats); !reflect.DeepEqual(got, want) {
		t.Fatalf("float sum diverges: %v vs row %v", vals(got), vals(want))
	}

	// max over [3 | NaN 5] is 5 folded in order, 3 if NaN stood in for its chunk.
	nan := []*element.Element{
		ev(0, 1, element.Float(3)), ev(1, 2, element.Float(1)),
		ev(2, 3, element.Float(math.NaN())), ev(3, 4, element.Float(5)),
	}
	max := &Spec{Width: 100, Aggs: []AggCall{{Kind: AggMax, Col: "v", Ref: getVar}}}
	got, merged, err = foldChunks(t, max, nan, 2, true)
	if err != nil || merged != 1 {
		t.Fatalf("NaN extreme: merged %d chunks (err %v), want only the first", merged, err)
	}
	if f, _ := vals(got)[0][0].FloatVal(); f != 5 {
		t.Fatalf("max = %v, want 5", vals(got)[0][0])
	}
	// Float extremes without NaN are exact and do merge.
	if _, merged, _ := foldChunks(t, max, floats, 2, true); merged != 2 {
		t.Fatalf("float max: merged %d chunks, want 2", merged)
	}
}

// TestMergeConflictChangesNothing: a partial whose lanes cannot combine
// with the accumulated state is refused whole, and consuming the rows
// instead fails with the row engine's text — whichever of several
// conflicts arrives first.
func TestMergeConflictChangesNothing(t *testing.T) {
	spec := &Spec{Width: 10, Aggs: []AggCall{
		{Kind: AggSum, Col: "a", Ref: ColRef{Src: ColVarying}},
		{Kind: AggMax, Col: "b", Ref: ColRef{Src: ColVarying, Slot: 1}},
	}}
	two := func(i int, vt int64, a, b element.Value) *element.Element {
		e := ev(i, vt, a)
		e.Varying = append(e.Varying, b)
		return e
	}
	elems := []*element.Element{
		// Chunk 1: window 0 sums floats, window 1 holds a string extreme.
		two(0, 1, element.Float(1.5), element.Int(1)),
		two(1, 12, element.Null(), element.String_("x")),
		// Chunk 2, in arrival order: the extreme conflict in window 1
		// comes first, the sum conflict in window 0 second.
		two(2, 13, element.Null(), element.Int(7)),
		two(3, 2, element.Int(4), element.Null()),
	}
	_, wantErr := RowAggregate(context.Background(), spec, elems)
	if wantErr == nil {
		t.Fatal("row engine accepted the mixed history")
	}
	_, merged, err := foldChunks(t, spec, elems, 2, true)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("partials path failed with %v, row engine with %v", err, wantErr)
	}
	if merged != 0 { // chunk 1 carries a float sum lane
		t.Fatalf("merged %d chunks", merged)
	}

	// The refusal itself: build state and partial by hand.
	agg, _ := NewColAgg(spec)
	other, _ := NewColAgg(spec)
	var b Batch
	var st ExecStats
	fillRows(&b, []*element.Element{two(0, 1, element.Int(1), element.Int(1)), two(1, 12, element.Int(2), element.String_("x"))})
	if err := agg.Consume(&b, &st); err != nil {
		t.Fatal(err)
	}
	before, _ := agg.Result()
	fillRows(&b, []*element.Element{two(2, 3, element.Int(5), element.Int(9)), two(3, 14, element.Int(6), element.Int(7))})
	if err := other.Consume(&b, &st); err != nil {
		t.Fatal(err)
	}
	p, exact := other.Cells()
	if !exact {
		t.Fatal("integer lanes not exported")
	}
	if agg.Merge(p) {
		t.Fatal("merged an int extreme into a string one")
	}
	if after, _ := agg.Result(); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused merge changed the state:\nbefore %+v\nafter  %+v", before, after)
	}
}
