package query

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

const testRun = vec.BatchSize // one sealed run

// partialsFixture is a vt-ordered log of runs·256 + tail events, vt = 10·i,
// one varying value each from val, with every full run sealed.
func partialsFixture(t *testing.T, runs, tail int, val func(i int) element.Value) *storage.RunStore {
	t.Helper()
	st := storage.NewVTLog()
	for i := 0; i < runs*testRun+tail; i++ {
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT:      element.EventAt(chronon.Chronon(10 * i)),
			Varying: []element.Value{val(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Compact(); got != runs*testRun {
		t.Fatalf("sealed %d, want %d", got, runs*testRun)
	}
	return st
}

func closeElem(st storage.Store, i int, tt chronon.Chronon) {
	orig := storage.Elements(st)[i]
	closed := *orig
	closed.TTEnd = tt
	st.Replace(orig, &closed)
}

func intVals(i int) element.Value {
	if i%11 == 0 {
		return element.Null()
	}
	return element.Int(int64(i*7919%1000) - 300)
}

func getV(e *element.Element) element.Value { return e.Varying[0] }

func testSpec(kind vec.WindowKind, k int64) *vec.Spec {
	return &vec.Spec{Width: 3000, WKind: kind, K: k, Aggs: []vec.AggCall{
		{Kind: vec.AggCount},
		{Kind: vec.AggSum, Col: "v", Get: getV},
		{Kind: vec.AggMax, Col: "v", Get: getV},
	}}
}

// threeWay runs spec on the row engine, the columnar engine with no memo,
// and the columnar engine with memo — all three through the plan's access
// path — requires the definition's answer (or error text) from each, and
// returns the memoized execution's stats.
func threeWay(t *testing.T, en *Engine, spec *vec.Spec, memo *PartialMemo) vec.ExecStats {
	t.Helper()
	ctx := context.Background()
	pq := plan.Query{Kind: plan.QCurrent}
	if spec.Filter.HasVT {
		pq = plan.Query{Kind: plan.QVTRange, VTLo: spec.Filter.VTLo, VTHi: spec.Filter.VTHi}
	}
	want, wantErr := vec.RowAggregateRuns(ctx, spec, storage.Runs(en.Store()))
	acc := en.Access()
	rowRes, _, rowErr := en.AggregateCtx(ctx, plan.BuildAggregate(acc, pq, plan.PickRow), spec, true, nil)
	col := plan.BuildAggregate(acc, pq, plan.PickColumnar)
	dirRes, _, dirErr := en.AggregateCtx(ctx, col, spec, true, nil)
	memRes, stats, memErr := en.AggregateCtx(ctx, col, spec, true, memo)
	for _, leg := range []struct {
		name string
		res  *vec.AggResult
		err  error
	}{{"row", rowRes, rowErr}, {"direct columnar", dirRes, dirErr}, {"memoized columnar", memRes, memErr}} {
		if (leg.err == nil) != (wantErr == nil) || (wantErr != nil && leg.err.Error() != wantErr.Error()) {
			t.Fatalf("%s error %v, definition's %v", leg.name, leg.err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(leg.res, want) {
			t.Fatalf("%s diverges from the definition\ndefinition: %+v\n%s: %+v", leg.name, want, leg.name, leg.res)
		}
	}
	return stats
}

const bigBudget = 1 << 20

// next hands the partials one execution left behind to the following one,
// as the catalog's cache does.
func next(m *PartialMemo) *PartialMemo {
	return &PartialMemo{Partials: m.Partials, Budget: m.Budget}
}

func TestRunPartialsColdWarmAndAfterWrites(t *testing.T) {
	st := partialsFixture(t, 5, 70, intVals)
	en := New(st, nil)

	cold := &PartialMemo{Budget: bigBudget}
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), cold); s.RunsMerged != 0 || s.RunsFolded != 5 || !cold.Grew {
		t.Fatalf("cold: %+v grew=%v, want 5 runs folded and learned", s, cold.Grew)
	}
	warm := next(cold)
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), warm); s.RunsMerged != 5 || s.RunsFolded != 0 || s.Rows != 70 || warm.Grew {
		t.Fatalf("warm: %+v grew=%v, want 5 runs merged, only the 70-element tail visited", s, warm.Grew)
	}
	// The window mode is applied after the cells: rolling and cumulative
	// reuse the partials a tumbling query left.
	for _, spec := range []*vec.Spec{testSpec(vec.Rolling, 3), testSpec(vec.Cumulative, 0)} {
		if s := threeWay(t, en, spec, next(cold)); s.RunsMerged != 5 {
			t.Fatalf("%v over tumbling partials: %+v", spec.WKind, s)
		}
	}

	// An append changes no run: still five merges, a longer tail.
	for i := 0; i < 40; i++ {
		n := st.Len()
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(n + 1), OS: 1, TTStart: chronon.Chronon(n + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(10 * n)), Varying: []element.Value{intVals(n)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), next(cold)); s.RunsMerged != 5 || s.Rows != 110 {
		t.Fatalf("after append: %+v", s)
	}

	// A pinned view, then closes inside runs 1 and 3 of the live store.
	pinned := en.Snapshot()
	closeElem(st, testRun+5, 9_000)
	closeElem(st, 3*testRun+200, 9_001)
	closeElem(st, 3*testRun+201, 9_002)
	after := next(cold)
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), after); s.RunsMerged != 3 || s.RunsFolded != 2 || !after.Grew {
		t.Fatalf("after closes: %+v grew=%v, want the two closed-into runs refolded", s, after.Grew)
	}
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), next(after)); s.RunsMerged != 5 {
		t.Fatalf("after relearning: %+v", s)
	}
	// The pinned view predates the closes: the partials learned after them
	// are not its runs' content. It folds those two runs itself, answers as
	// of its own snapshot (threeWay compares with the row engine on the
	// same view), and does not displace the fresher entries.
	old := next(after)
	if s := threeWay(t, pinned, testSpec(vec.Tumbling, 0), old); s.RunsMerged != 3 || s.RunsFolded != 2 || old.Grew {
		t.Fatalf("pinned view: %+v grew=%v, want 3 merged, 2 folded, nothing recorded", s, old.Grew)
	}

	// Sealing more runs extends the memo; ordinals of the old runs hold.
	st.Compact()
	if _, runs := storage.SealedInfo(st); runs != 5 {
		t.Fatalf("tail of 110 sealed into %d runs", runs-5)
	}
}

func TestRunPartialsClampAsOfAndBudget(t *testing.T) {
	st := partialsFixture(t, 5, 30, intVals)
	en := New(st, nil)
	whole := &PartialMemo{Budget: bigBudget}
	threeWay(t, en, testSpec(vec.Tumbling, 0), whole)

	// Runs cover vt [2560·k, 2560·k + 2551]. A clamp containing runs 1–3
	// and cutting runs 0 and 4 merges the three and folds the two; the
	// partials were learned unclamped, which is the same thing for a run
	// the clamp does not cut.
	clamped := testSpec(vec.Tumbling, 0)
	clamped.Filter = vec.Filter{HasVT: true, VTLo: 1000, VTHi: 11_000}
	if s := threeWay(t, en, clamped, next(whole)); s.RunsMerged != 3 || s.RunsFolded != 2 {
		t.Fatalf("clamp: %+v, want 3 merged, 2 folded", s)
	}
	// And the other way round: partials learned under a clamp serve the
	// unclamped query for exactly the runs the clamp contained.
	under := &PartialMemo{Budget: bigBudget}
	threeWay(t, en, clamped, under)
	if s := threeWay(t, en, testSpec(vec.Cumulative, 0), next(under)); s.RunsMerged != 3 || s.RunsFolded != 2 {
		t.Fatalf("unclamped over clamp-learned partials: %+v", s)
	}

	// AS OF depends on tt⊣ values, not on which elements are current:
	// nothing is merged and nothing learned.
	closeElem(st, 40, 2_000)
	asOf := testSpec(vec.Tumbling, 0)
	asOf.Filter = vec.Filter{AsOf: true, TT: 1_500}
	m := next(whole)
	if s := threeWay(t, en, asOf, m); s.RunsMerged != 0 || m.Grew {
		t.Fatalf("as of: %+v grew=%v", s, m.Grew)
	}

	// A budget that holds about two runs' cells: the memo stops growing
	// there, stays under it, and later queries merge that prefix.
	tight := &PartialMemo{Budget: 1500}
	threeWay(t, en, testSpec(vec.Tumbling, 0), tight)
	if !tight.Grew || tight.Partials.Size() > tight.Budget {
		t.Fatalf("tight budget: grew=%v size=%d budget=%d", tight.Grew, tight.Partials.Size(), tight.Budget)
	}
	again := next(tight)
	s := threeWay(t, en, testSpec(vec.Tumbling, 0), again)
	if s.RunsMerged == 0 || s.RunsMerged == 5 || s.RunsMerged+s.RunsFolded != 5 || again.Partials.Size() > again.Budget {
		t.Fatalf("tight budget, second query: %+v size=%d", s, again.Partials.Size())
	}
}

// TestRunPartialsInexactAndFailingRuns: float sums are never merged (and
// the fact is memoized, so the second query does not try), mixed-type sums
// fail with the row engine's text whichever side of the conflict was
// memoized, and a span-guard trip inside a run surfaces unchanged.
func TestRunPartialsInexactAndFailingRuns(t *testing.T) {
	floats := partialsFixture(t, 3, 10, func(i int) element.Value { return element.Float(float64(i) / 10) })
	en := New(floats, nil)
	sum := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Get: getV}}}
	cold := &PartialMemo{Budget: bigBudget}
	if s := threeWay(t, en, sum, cold); s.RunsMerged != 0 || s.Rows != 3*testRun+10 || !cold.Grew {
		t.Fatalf("float sum, cold: %+v grew=%v", s, cold.Grew)
	}
	warm := next(cold)
	if s := threeWay(t, en, sum, warm); s.RunsMerged != 0 || s.RunsFolded != 3 || warm.Grew {
		t.Fatalf("float sum, warm: %+v grew=%v", s, warm.Grew)
	}

	for name, val := range map[string]func(int) element.Value{
		"ints-then-floats": func(i int) element.Value {
			if i < testRun {
				return element.Int(int64(i))
			}
			return element.Float(0.5)
		},
		"floats-then-ints": func(i int) element.Value {
			if i < testRun {
				return element.Float(0.5)
			}
			return element.Int(int64(i))
		},
	} {
		en := New(partialsFixture(t, 2, 0, val), nil)
		one := &vec.Spec{Width: 1 << 20, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Get: getV}}}
		m := &PartialMemo{Budget: bigBudget}
		threeWay(t, en, one, m) // fails in all three with one text
		threeWay(t, en, one, next(m))
		_, _, err := en.AggregateCtx(context.Background(),
			plan.BuildAggregate(en.Access(), plan.Query{}, plan.PickColumnar), one, true, next(m))
		if err == nil || err.Error() != "vec: sum(v) over mixed int and float values" {
			t.Fatalf("%s: error %v", name, err)
		}
	}

	// One interval in run 1 spans more windows than the guard allows.
	st := storage.NewTTLog()
	for i := 0; i < 2*testRun; i++ {
		vt := element.SpanOf(chronon.Chronon(10*i), chronon.Chronon(10*i+5))
		if i == testRun+17 {
			vt = element.SpanOf(chronon.Chronon(10*i), chronon.Chronon(10*i+8*vec.MaxWindows))
		}
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: vt, Varying: []element.Value{element.Int(1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	guard := &vec.Spec{Width: 7, Aggs: []vec.AggCall{{Kind: vec.AggCount}}}
	iv := New(st, nil)
	ctx := context.Background()
	col := plan.BuildAggregate(iv.Access(), plan.Query{}, plan.PickColumnar)
	_, _, rowErr := iv.AggregateCtx(ctx, plan.BuildAggregate(iv.Access(), plan.Query{}, plan.PickRow), guard, false, nil)
	m := &PartialMemo{Budget: bigBudget}
	for i := 0; i < 2; i++ {
		_, _, err := iv.AggregateCtx(ctx, col, guard, false, m)
		if rowErr == nil || err == nil || err.Error() != rowErr.Error() {
			t.Fatalf("span guard, pass %d: columnar %v, row %v", i, err, rowErr)
		}
		m = next(m)
	}
}

// groupStats checks the memoized leg's merges: groups of 16, chunks merged
// (counting those inside groups) and chunks folded.
func groupStats(t *testing.T, leg string, s vec.ExecStats, groups, merged, folded int64) {
	t.Helper()
	if s.GroupsMerged != groups || s.RunsMerged != merged || s.RunsFolded != folded {
		t.Fatalf("%s: %+v, want %d groups, %d chunks merged, %d folded", leg, s, groups, merged, folded)
	}
}

// TestGroupPartials walks the group memo through the histories that decide
// whether a group's partial may stand in for its 16 chunks: learned once all
// of them are known, re-learned after a close moves the group's sum, left
// alone by an older pinned view, never built past the budget or from
// inexact chunks, built over an entirely closed chunk, and bounded by a
// clamp. threeWay holds every answer to vec.RowAggregateRuns.
func TestGroupPartials(t *testing.T) {
	const runs = 2*groupRuns + 3
	st := partialsFixture(t, runs, 40, intVals)
	en := New(st, nil)
	spec := testSpec(vec.Tumbling, 0)

	cold := &PartialMemo{Budget: bigBudget}
	groupStats(t, "cold", threeWay(t, en, spec, cold), 0, 0, runs)
	// Every chunk is known now: the next execution builds both groups from
	// them and merges them in their place.
	build := next(cold)
	groupStats(t, "building", threeWay(t, en, spec, build), 2, runs, 0)
	if !build.Grew || build.Partials.group(0) == nil || build.Partials.group(1) == nil {
		t.Fatalf("building: grew=%v, groups %v", build.Grew, build.Partials.groups)
	}
	warm := next(build)
	groupStats(t, "warm", threeWay(t, en, spec, warm), 2, runs, 0)
	if warm.Grew {
		t.Fatal("warm: the memo grew")
	}
	for _, spec := range []*vec.Spec{testSpec(vec.Rolling, 3), testSpec(vec.Cumulative, 0)} {
		groupStats(t, spec.WKind.String(), threeWay(t, en, spec, next(warm)), 2, runs, 0)
	}

	// A clamp may cover a group exactly, not cut it. Chunk k holds vt
	// [2560k, 2560k + 2550].
	exact := testSpec(vec.Tumbling, 0)
	exact.Filter = vec.Filter{HasVT: true, VTLo: 0, VTHi: groupRuns * 2560}
	groupStats(t, "clamp around group 0", threeWay(t, en, exact, next(warm)), 1, groupRuns, 0)
	cut := testSpec(vec.Tumbling, 0)
	cut.Filter = vec.Filter{HasVT: true, VTLo: 100, VTHi: groupRuns * 2560}
	groupStats(t, "clamp cutting chunk 0", threeWay(t, en, cut, next(warm)), 0, groupRuns-1, 1)

	// A close inside group 1 moves its sum: group 0 still merges, group 1's
	// chunks go one at a time, the closed-into one folded and re-learned,
	// and the execution after that rebuilds group 1 at the new sum.
	pinned := en.Snapshot()
	closeElem(st, 20*testRun+7, 9_000)
	after := next(warm)
	groupStats(t, "after a close", threeWay(t, en, spec, after), 1, runs-1, 1)
	relearn := next(after)
	groupStats(t, "relearning", threeWay(t, en, spec, relearn), 2, runs, 0)
	if g := relearn.Partials.group(1); !relearn.Grew || g == nil || g.closed != 1 {
		t.Fatalf("relearning: grew=%v, group 1 %+v", relearn.Grew, g)
	}
	fresh := next(relearn)
	groupStats(t, "after relearning", threeWay(t, en, spec, fresh), 2, runs, 0)

	// The pinned view predates the close. Group 1's entry and chunk 20's
	// are fresher than what it sees: it folds that chunk itself, merges the
	// other fifteen one by one, and records nothing over them.
	old := next(fresh)
	groupStats(t, "pinned view", threeWay(t, pinned, spec, old), 1, runs-1, 1)
	if g := old.Partials.group(1); old.Grew || g.closed != 1 {
		t.Fatalf("pinned view: grew=%v, group 1 at %d closes", old.Grew, g.closed)
	}

	// An entirely closed first chunk is pruned, contributes nothing, and
	// leaves its group standing on the other fifteen.
	for i := 0; i < testRun; i++ {
		closeElem(st, i, chronon.Chronon(10_000+i))
	}
	gone := next(fresh)
	s := threeWay(t, en, spec, gone)
	groupStats(t, "first chunk closed", s, 2, runs-1, 0)
	if s.ChunksPruned != 1 {
		t.Fatalf("first chunk closed: %+v, want it pruned", s)
	}

	// A removing vacuum rebuilds the store over the survivors, which moves
	// every chunk's content: the catalog keys the memo by store generation,
	// so the rebuilt store starts from nothing and learns its groups anew.
	vacuumed := storage.NewVTLog()
	for _, e := range storage.Elements(st) {
		if e.Current() {
			if err := vacuumed.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	vacuumed.Compact()
	ven := New(vacuumed, nil)
	gen := &PartialMemo{Budget: bigBudget}
	groupStats(t, "vacuumed, cold", threeWay(t, ven, spec, gen), 0, 0, runs-1)
	groupStats(t, "vacuumed, building", threeWay(t, ven, spec, next(gen)), 2, runs-1, 0)

	// A budget with room for the chunks and none for a group: the chunks
	// are merged as before, and no group is learned or merged.
	tight := &PartialMemo{Partials: cold.Partials, Budget: cold.Partials.Size()}
	groupStats(t, "budget spent", threeWay(t, New(partialsFixture(t, runs, 40, intVals), nil), spec, tight), 0, runs, 0)
	if tight.Grew || len(tight.Partials.groups) != 0 {
		t.Fatalf("budget spent: grew=%v, groups %v", tight.Grew, tight.Partials.groups)
	}
}

// TestGroupPartialsNeedExactChunks: a float sum's chunks are inexact, so no
// group is built from them; chunks whose extremes of different kinds meet in
// a window build no group either; and a group that cannot merge into what
// precedes it falls back to its chunks, which fail with the row engine's
// text.
func TestGroupPartialsNeedExactChunks(t *testing.T) {
	const runs = 2 * groupRuns
	floats := New(partialsFixture(t, runs, 10, func(i int) element.Value { return element.Float(float64(i) / 10) }), nil)
	sum := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Get: getV}}}
	m := &PartialMemo{Budget: bigBudget}
	for pass := 0; pass < 3; pass++ {
		groupStats(t, "float sum", threeWay(t, floats, sum, m), 0, 0, runs)
		if g := m.Partials.group(0); g != nil {
			t.Fatalf("float sum, pass %d: group 0 %+v built from inexact chunks", pass, g)
		}
		m = next(m)
	}

	max := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggMax, Col: "v", Get: getV}}}
	// Strings from chunk 8 on, which shares a window with chunk 7: group
	// 0's chunks conflict among themselves, as the fold of them does.
	within := New(partialsFixture(t, groupRuns, 0, func(i int) element.Value {
		if i < 8*testRun {
			return element.Int(int64(i))
		}
		return element.String_("s")
	}), nil)
	m = &PartialMemo{Budget: bigBudget}
	for pass := 0; pass < 3; pass++ {
		threeWay(t, within, max, m) // fails in all three with one text
		if g := m.Partials.group(0); g != nil {
			t.Fatalf("conflicting chunks, pass %d: group 0 %+v built", pass, g)
		}
		m = next(m)
	}

	// One window over everything: group 1's strings meet group 0's ints. A
	// clamp around group 1 learns it alone; unclamped, it cannot merge into
	// the ints, nor can its first chunk, which is folded and fails.
	wide := &vec.Spec{Width: 1 << 30, Aggs: []vec.AggCall{{Kind: vec.AggMax, Col: "v", Get: getV}}}
	across := New(partialsFixture(t, runs, 0, func(i int) element.Value {
		if i < groupRuns*testRun {
			return element.Int(int64(i))
		}
		return element.String_("s")
	}), nil)
	alone := *wide
	alone.Filter = vec.Filter{HasVT: true, VTLo: groupRuns * 2560, VTHi: runs * 2560}
	m = &PartialMemo{Budget: bigBudget}
	threeWay(t, across, &alone, m)
	m = next(m)
	groupStats(t, "group 1 alone", threeWay(t, across, &alone, m), 1, groupRuns, 0)
	threeWay(t, across, wide, next(m)) // fails in all three with one text
}
