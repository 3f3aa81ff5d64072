package query

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/refmodel"
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

// getV names the first time-varying value.
var getV = vec.ColRef{Src: vec.ColVarying}

func testSpec(kind vec.WindowKind, k int64) *vec.Spec {
	return &vec.Spec{Width: 3000, WKind: kind, K: k, Aggs: []vec.AggCall{
		{Kind: vec.AggCount},
		{Kind: vec.AggSum, Col: "v", Ref: getV},
		{Kind: vec.AggMax, Col: "v", Ref: getV},
	}}
}

// threeWay holds the engine to the definition both ways: it runs spec with
// no memo and with memo, both through the plan's access path; requires the
// definition's answer (or error text) from each, and returns the memoized
// execution's stats.
func threeWay(t *testing.T, en *Engine, spec *vec.Spec, memo *PartialMemo) vec.ExecStats {
	t.Helper()
	ctx := context.Background()
	pq := plan.Query{Kind: plan.QCurrent}
	if spec.Filter.HasVT {
		pq = plan.Query{Kind: plan.QVTRange, VTLo: spec.Filter.VTLo, VTHi: spec.Filter.VTHi}
	}
	want, wantErr := vec.RowAggregate(ctx, spec, storage.Elements(en.Store()))
	node := plan.Build(en.Access(), pq)
	rowRes, _, rowErr := en.AggregateCtx(ctx, node, spec, true, nil)
	memRes, stats, memErr := en.AggregateCtx(ctx, node, spec, true, memo)
	for _, leg := range []struct {
		name string
		res  *vec.AggResult
		err  error
	}{{"plain", rowRes, rowErr}, {"memoized", memRes, memErr}} {
		if (leg.err == nil) != (wantErr == nil) || (wantErr != nil && leg.err.Error() != wantErr.Error()) {
			t.Fatalf("%s error %v, definition's %v", leg.name, leg.err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(leg.res, want) {
			t.Fatalf("%s diverges from the definition\ndefinition: %+v\n%s: %+v", leg.name, want, leg.name, leg.res)
		}
	}
	return stats
}

const bigCache = 32 << 20

// memoCache is the chunk memo's home as a catalog entry keeps it: a cache,
// and the counters of the partial and group kinds.
type memoCache struct {
	c            *qcache.Cache
	runs, groups qcache.Counts
}

func newMemo(capacity int64) *memoCache { return &memoCache{c: qcache.New(capacity)} }

// exec is one execution's memo, as the catalog hands it one.
func (mc *memoCache) exec() *PartialMemo {
	return &PartialMemo{Runs: mc.c.Chunks("r", "part:t", 0, &mc.runs), Groups: mc.c.Chunks("r", "grp:t", 0, &mc.groups)}
}

// built is how many partials of both kinds executions have put so far.
func (mc *memoCache) built() int64 { return mc.runs.Built.Load() + mc.groups.Built.Load() }

// group reports the partial kept for group g at closes, nil for none.
func (mc *memoCache) group(g, closes int) *vec.Partial {
	v, exact, _ := mc.exec().Groups.Get(g, closes)
	if !exact {
		return nil
	}
	return v.(*vec.Partial)
}

// learned runs one memoized threeWay and reports whether it put anything.
func learned(t *testing.T, en *Engine, spec *vec.Spec, mc *memoCache) (vec.ExecStats, bool) {
	t.Helper()
	before := mc.built()
	s := threeWay(t, en, spec, mc.exec())
	return s, mc.built() > before
}

func TestRunPartialsColdWarmAndAfterWrites(t *testing.T) {
	st := partialsFixture(t, 5, 70, intVals)
	en := New(st, nil)

	mc := newMemo(bigCache)
	if s, grew := learned(t, en, testSpec(vec.Tumbling, 0), mc); s.RunsMerged != 0 || s.RunsFolded != 5 || !grew {
		t.Fatalf("cold: %+v grew=%v, want 5 runs folded and learned", s, grew)
	}
	if s, grew := learned(t, en, testSpec(vec.Tumbling, 0), mc); s.RunsMerged != 5 || s.RunsFolded != 0 || s.Rows != 70 || grew {
		t.Fatalf("warm: %+v grew=%v, want 5 runs merged, only the 70-element tail visited", s, grew)
	}
	// The window mode is applied after the cells: rolling and cumulative
	// reuse the partials a tumbling query left.
	for _, spec := range []*vec.Spec{testSpec(vec.Rolling, 3), testSpec(vec.Cumulative, 0)} {
		if s := threeWay(t, en, spec, mc.exec()); s.RunsMerged != 5 {
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
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), mc.exec()); s.RunsMerged != 5 || s.Rows != 110 {
		t.Fatalf("after append: %+v", s)
	}

	// A pinned view, then closes inside runs 1 and 3 of the live store.
	pinned := en.Snapshot()
	closeElem(st, testRun+5, 9_000)
	closeElem(st, 3*testRun+200, 9_001)
	closeElem(st, 3*testRun+201, 9_002)
	if s, grew := learned(t, en, testSpec(vec.Tumbling, 0), mc); s.RunsMerged != 3 || s.RunsFolded != 2 || !grew {
		t.Fatalf("after closes: %+v grew=%v, want the two closed-into runs refolded", s, grew)
	}
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), mc.exec()); s.RunsMerged != 5 {
		t.Fatalf("after relearning: %+v", s)
	}
	// The pinned view predates the closes: the partials learned after them
	// are not its runs' content. It folds those two runs itself, answers as
	// of its own snapshot (threeWay compares with the definition on the
	// same view), and does not displace the fresher entries.
	if s, grew := learned(t, pinned, testSpec(vec.Tumbling, 0), mc); s.RunsMerged != 3 || s.RunsFolded != 2 || grew {
		t.Fatalf("pinned view: %+v grew=%v, want 3 merged, 2 folded, nothing recorded", s, grew)
	}
	if s := threeWay(t, en, testSpec(vec.Tumbling, 0), mc.exec()); s.RunsMerged != 5 {
		t.Fatalf("after the pinned view: %+v, want the fresher partials still there", s)
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
	whole := newMemo(bigCache)
	threeWay(t, en, testSpec(vec.Tumbling, 0), whole.exec())

	// Runs cover vt [2560·k, 2560·k + 2551]. A clamp containing runs 1–3
	// and cutting runs 0 and 4 merges the three and folds the two; the
	// partials were learned unclamped, which is the same thing for a run
	// the clamp does not cut.
	clamped := testSpec(vec.Tumbling, 0)
	clamped.Filter = vec.Filter{HasVT: true, VTLo: 1000, VTHi: 11_000}
	if s := threeWay(t, en, clamped, whole.exec()); s.RunsMerged != 3 || s.RunsFolded != 2 {
		t.Fatalf("clamp: %+v, want 3 merged, 2 folded", s)
	}
	// And the other way round: partials learned under a clamp serve the
	// unclamped query for exactly the runs the clamp contained.
	under := newMemo(bigCache)
	threeWay(t, en, clamped, under.exec())
	if s := threeWay(t, en, testSpec(vec.Cumulative, 0), under.exec()); s.RunsMerged != 3 || s.RunsFolded != 2 {
		t.Fatalf("unclamped over clamp-learned partials: %+v", s)
	}

	// AS OF depends on tt⊣ values, not on which elements are current:
	// nothing is merged and nothing learned.
	closeElem(st, 40, 2_000)
	asOf := testSpec(vec.Tumbling, 0)
	asOf.Filter = vec.Filter{AsOf: true, TT: 1_500}
	if s, grew := learned(t, en, asOf, whole); s.RunsMerged != 0 || grew {
		t.Fatalf("as of: %+v grew=%v", s, grew)
	}

	// Each partial is one cache entry. Under a cache whose entries are
	// smaller than a chunk's partial nothing is kept: every execution folds
	// every chunk, offers its partial, and answers as the plain fold does.
	tiny := newMemo(8 * 64) // entries up to 64 bytes; a chunk's cells take more
	for pass := 0; pass < 2; pass++ {
		if s := threeWay(t, en, testSpec(vec.Tumbling, 0), tiny.exec()); s.RunsMerged != 0 || s.RunsFolded != 5 {
			t.Fatalf("entries too small, pass %d: %+v", pass, s)
		}
	}
	if got := tiny.runs.Built.Load(); got != 10 || tiny.c.Stats().Entries != 0 {
		t.Fatalf("entries too small: %d partials built, %d kept", got, tiny.c.Stats().Entries)
	}
}

// TestRunPartialsInexactAndFailingRuns: float sums are never merged (and
// the fact is memoized, so the second query does not try), mixed-type sums
// fail with the row engine's text whichever side of the conflict was
// memoized, and a span-guard trip inside a run surfaces unchanged.
func TestRunPartialsInexactAndFailingRuns(t *testing.T) {
	floats := partialsFixture(t, 3, 10, func(i int) element.Value { return element.Float(float64(i) / 10) })
	en := New(floats, nil)
	sum := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Ref: getV}}}
	mc := newMemo(bigCache)
	if s, grew := learned(t, en, sum, mc); s.RunsMerged != 0 || s.Rows != 3*testRun+10 || !grew {
		t.Fatalf("float sum, cold: %+v grew=%v", s, grew)
	}
	if s, grew := learned(t, en, sum, mc); s.RunsMerged != 0 || s.RunsFolded != 3 || grew {
		t.Fatalf("float sum, warm: %+v grew=%v", s, grew)
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
		one := &vec.Spec{Width: 1 << 20, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Ref: getV}}}
		mc := newMemo(bigCache)
		threeWay(t, en, one, mc.exec()) // fails in all three with one text
		threeWay(t, en, one, mc.exec())
		_, _, err := en.AggregateCtx(context.Background(),
			plan.Build(en.Access(), plan.Query{}), one, true, mc.exec())
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
	node := plan.Build(iv.Access(), plan.Query{})
	_, rowErr := vec.RowAggregate(ctx, guard, storage.Elements(st))
	mc = newMemo(bigCache)
	for i := 0; i < 4; i++ {
		_, _, err := iv.AggregateCtx(ctx, node, guard, false, mc.exec())
		if rowErr == nil || err == nil || err.Error() != rowErr.Error() {
			t.Fatalf("span guard, pass %d: kernel %v, definition %v", i, err, rowErr)
		}
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
// alone by an older pinned view, never built from inexact chunks, merged
// but not kept when it is larger than a cache entry, built over an entirely
// closed chunk, and bounded by a clamp. threeWay holds every answer to vec.RowAggregate.
func TestGroupPartials(t *testing.T) {
	const runs = 2*groupRuns + 3
	st := partialsFixture(t, runs, 40, intVals)
	en := New(st, nil)
	spec := testSpec(vec.Tumbling, 0)

	mc := newMemo(bigCache)
	groupStats(t, "cold", threeWay(t, en, spec, mc.exec()), 0, 0, runs)
	// Every chunk is known now: the next execution builds both groups from
	// them and merges them in their place.
	groupStats(t, "building", threeWay(t, en, spec, mc.exec()), 2, runs, 0)
	if mc.groups.Built.Load() != 2 || mc.group(0, 0) == nil || mc.group(1, 0) == nil {
		t.Fatalf("building: %d groups built, kept %v %v", mc.groups.Built.Load(), mc.group(0, 0), mc.group(1, 0))
	}
	s, grew := learned(t, en, spec, mc)
	groupStats(t, "warm", s, 2, runs, 0)
	if grew {
		t.Fatal("warm: the memo grew")
	}
	for _, spec := range []*vec.Spec{testSpec(vec.Rolling, 3), testSpec(vec.Cumulative, 0)} {
		groupStats(t, spec.WKind.String(), threeWay(t, en, spec, mc.exec()), 2, runs, 0)
	}

	// A clamp may cover a group exactly, not cut it. Chunk k holds vt
	// [2560k, 2560k + 2550].
	exact := testSpec(vec.Tumbling, 0)
	exact.Filter = vec.Filter{HasVT: true, VTLo: 0, VTHi: groupRuns * 2560}
	groupStats(t, "clamp around group 0", threeWay(t, en, exact, mc.exec()), 1, groupRuns, 0)
	cut := testSpec(vec.Tumbling, 0)
	cut.Filter = vec.Filter{HasVT: true, VTLo: 100, VTHi: groupRuns * 2560}
	groupStats(t, "clamp cutting chunk 0", threeWay(t, en, cut, mc.exec()), 0, groupRuns-1, 1)

	// A close inside group 1 moves its sum: group 0 still merges, group 1's
	// chunks go one at a time, the closed-into one folded and re-learned,
	// and the execution after that rebuilds group 1 at the new sum.
	pinned := en.Snapshot()
	closeElem(st, 20*testRun+7, 9_000)
	groupStats(t, "after a close", threeWay(t, en, spec, mc.exec()), 1, runs-1, 1)
	s, grew = learned(t, en, spec, mc)
	groupStats(t, "relearning", s, 2, runs, 0)
	if !grew || mc.group(1, 1) == nil {
		t.Fatalf("relearning: grew=%v, group 1 not kept at 1 close", grew)
	}
	groupStats(t, "after relearning", threeWay(t, en, spec, mc.exec()), 2, runs, 0)

	// The pinned view predates the close. Group 1's entry and chunk 20's
	// are fresher than what it sees: it folds that chunk itself, merges the
	// other fifteen one by one, and records nothing over them.
	s, grew = learned(t, pinned, spec, mc)
	groupStats(t, "pinned view", s, 1, runs-1, 1)
	if grew || mc.group(1, 1) == nil {
		t.Fatalf("pinned view: grew=%v, group 1 no longer kept at 1 close", grew)
	}

	// An entirely closed first chunk is pruned, contributes nothing, and
	// leaves its group standing on the other fifteen.
	for i := 0; i < testRun; i++ {
		closeElem(st, i, chronon.Chronon(10_000+i))
	}
	s = threeWay(t, en, spec, mc.exec())
	groupStats(t, "first chunk closed", s, 2, runs-1, 0)
	if s.ChunksPruned != 1 {
		t.Fatalf("first chunk closed: %+v, want it pruned", s)
	}

	// A removing vacuum rebuilds the store over the survivors, which moves
	// every chunk's content: the catalog keys the memo by store generation,
	// so the rebuilt store starts from nothing and learns its groups anew.
	vacuumed := storage.NewVTLog()
	for _, e := range refmodel.Current(storage.Elements(st)) {
		if err := vacuumed.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	vacuumed.Compact()
	ven := New(vacuumed, nil)
	gen := newMemo(bigCache)
	groupStats(t, "vacuumed, cold", threeWay(t, ven, spec, gen.exec()), 0, 0, runs-1)
	groupStats(t, "vacuumed, building", threeWay(t, ven, spec, gen.exec()), 2, runs-1, 0)

	// A cache whose entries have room for a chunk's partial and none for a
	// group's, over one group: the chunks are kept, and every execution
	// builds the group from them, merges it and cannot keep it.
	chunkMax, groupMin := int64(0), int64(1<<62)
	for k := 0; k < runs-1; k++ {
		v, _, _ := gen.exec().Runs.Get(k, 0)
		chunkMax = max(chunkMax, partialSize(v.(*vec.Partial)))
	}
	for g := 0; g < 2; g++ {
		groupMin = min(groupMin, partialSize(gen.group(g, 0)))
	}
	tight := newMemo((groupRuns + 4) * chunkMax) // holds the sixteen chunks
	if max := tight.c.MaxEntry(); max < chunkMax || max >= groupMin {
		t.Fatalf("entries of %d bytes; a chunk's partial takes up to %d and a group's %d", max, chunkMax, groupMin)
	}
	one := New(partialsFixture(t, groupRuns, 40, intVals), nil)
	groupStats(t, "group too large, cold", threeWay(t, one, spec, tight.exec()), 0, 0, groupRuns)
	for pass := 1; pass <= 2; pass++ {
		groupStats(t, "group too large", threeWay(t, one, spec, tight.exec()), 1, groupRuns, 0)
		if built := tight.groups.Built.Load(); built != int64(pass) || tight.group(0, 0) != nil {
			t.Fatalf("group too large, pass %d: %d built, kept %v", pass, built, tight.group(0, 0) != nil)
		}
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
	sum := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggSum, Col: "v", Ref: getV}}}
	mc := newMemo(bigCache)
	for pass := 0; pass < 3; pass++ {
		groupStats(t, "float sum", threeWay(t, floats, sum, mc.exec()), 0, 0, runs)
		if n := mc.groups.Built.Load(); n != 0 {
			t.Fatalf("float sum, pass %d: %d groups built from inexact chunks", pass, n)
		}
	}

	max := &vec.Spec{Width: 3000, Aggs: []vec.AggCall{{Kind: vec.AggMax, Col: "v", Ref: getV}}}
	// Strings from chunk 8 on, which shares a window with chunk 7: group
	// 0's chunks conflict among themselves, as the fold of them does.
	within := New(partialsFixture(t, groupRuns, 0, func(i int) element.Value {
		if i < 8*testRun {
			return element.Int(int64(i))
		}
		return element.String_("s")
	}), nil)
	mc = newMemo(bigCache)
	for pass := 0; pass < 3; pass++ {
		threeWay(t, within, max, mc.exec()) // fails in all three with one text
		if n := mc.groups.Built.Load(); n != 0 {
			t.Fatalf("conflicting chunks, pass %d: %d groups built", pass, n)
		}
	}

	// One window over everything: group 1's strings meet group 0's ints. A
	// clamp around group 1 learns it alone; unclamped, it cannot merge into
	// the ints, nor can its first chunk, which is folded and fails.
	wide := &vec.Spec{Width: 1 << 30, Aggs: []vec.AggCall{{Kind: vec.AggMax, Col: "v", Ref: getV}}}
	across := New(partialsFixture(t, runs, 0, func(i int) element.Value {
		if i < groupRuns*testRun {
			return element.Int(int64(i))
		}
		return element.String_("s")
	}), nil)
	alone := *wide
	alone.Filter = vec.Filter{HasVT: true, VTLo: groupRuns * 2560, VTHi: runs * 2560}
	mc = newMemo(bigCache)
	threeWay(t, across, &alone, mc.exec())
	groupStats(t, "group 1 alone", threeWay(t, across, &alone, mc.exec()), 1, groupRuns, 0)
	threeWay(t, across, wide, mc.exec()) // fails in all three with one text
}

// TestRefoldReusesOneReader: Refold folds each window run through one batch
// reader, reset between runs, so what it allocates does not follow how many
// runs it folds: a refold of one window and a refold of eight, one run each,
// allocate the same count. The answers stay the full fold's.
func TestRefoldReusesOneReader(t *testing.T) {
	st := partialsFixture(t, 8, 40, intVals)
	en := New(st, nil)
	spec := testSpec(vec.Tumbling, 0)
	ctx := context.Background()
	node := plan.Build(en.Access(), plan.Query{Kind: plan.QCurrent})
	want, base, _, err := en.AggregateCells(ctx, node, spec, true, nil)
	if err != nil || base == nil {
		t.Fatalf("the cells to refold from: %v, %v", base, err)
	}
	refold := func(runs []vec.WindowRun) {
		res, _, _, err := en.Refold(ctx, node, spec, true, nil, base, runs)
		if err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("a refold of %d runs: %v\n got %+v\nwant %+v", len(runs), err, res, want)
		}
	}
	one := []vec.WindowRun{{Lo: 0, Hi: 0}}
	var eight []vec.WindowRun
	for w := int64(0); w < 8; w++ {
		eight = append(eight, vec.WindowRun{Lo: 2 * w, Hi: 2 * w})
	}
	refold(one)
	refold(eight)
	a1 := testing.AllocsPerRun(20, func() { refold(one) })
	a8 := testing.AllocsPerRun(20, func() { refold(eight) })
	t.Logf("a refold allocates %v objects over one run, %v over eight", a1, a8)
	if a1 != a8 {
		t.Fatalf("a refold over eight runs allocates %v objects, over one %v: something is made per run", a8, a1)
	}
}
