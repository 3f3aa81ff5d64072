package catalog

// Aggregate read-path tests: window-aggregate results are memoized under
// (relation, "agg:"+fingerprint) with the epoch they were computed at, so a
// repeat SELECT hits the cache, a write outside the statement's footprint
// leaves it standing and a write inside recomputes it; the batch-operator
// counters account executed engines, not cache replays; and below the
// result cache the per-run partials survive the writes that drop it.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
	"repro/internal/vec"
)

func mustAggSelect(t *testing.T, e *Entry, src string) *tsql.Result {
	t.Helper()
	q, err := tsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	res, _, _, err := e.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("SelectCtx(%q): %v", src, err)
	}
	return res
}

func TestAggregateCacheEpochInvalidation(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("m"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 50; i++ {
		mustInsert(t, e, int64(i))
	}
	const src = "select count(*) from m group by window(10)"

	res1 := mustAggSelect(t, e, src)
	before := c.Cache().Stats()
	res2 := mustAggSelect(t, e, src)
	after := c.Cache().Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("repeat aggregate missed the cache: hits %d -> %d", before.Hits, after.Hits)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("cached replay differs:\nfirst:  %+v\nreplay: %+v", res1, res2)
	}
	if n, _ := res1.Rows[0][2].IntVal(); n != 10 {
		t.Fatalf("window [0,10) count = %d, want 10", n)
	}

	// Every write meets an unclamped statement: the same statement
	// re-executes and the fresh result sees the new row — a stale cached
	// window would not.
	ep := e.Epoch()
	mustInsert(t, e, 5)
	if e.Epoch() <= ep {
		t.Fatalf("insert did not bump the epoch past %d", ep)
	}
	res3 := mustAggSelect(t, e, src)
	if n, _ := res3.Rows[0][2].IntVal(); n != 11 {
		t.Fatalf("post-insert window [0,10) count = %d, want 11", n)
	}
	if c.Cache().Stats().Hits != after.Hits {
		t.Fatal("post-mutation aggregate served from the stale epoch's cache entry")
	}

	// A USING hint changes nothing: the hinted forms are served from the
	// unhinted statement's cache entry.
	hits := c.Cache().Stats().Hits
	for _, hint := range []string{" using row", " using columnar"} {
		if got := mustAggSelect(t, e, src+hint); !reflect.DeepEqual(got, res3) {
			t.Fatalf("%q answers differently:\n%+v\nwant %+v", hint, got, res3)
		}
	}
	if got := c.Cache().Stats().Hits; got != hits+2 {
		t.Fatalf("hinted forms hit the cache %d times, want 2", got-hits)
	}

	// A clamped statement is met only by the writes inside its clamp: one
	// past it leaves the answer standing, served at the new epoch without
	// executing; one inside re-executes it.
	const clamped = "select count(*) from m when valid during [0, 20) group by window(10)"
	held := mustAggSelect(t, e, clamped)
	st0, rows := c.Cache().Stats(), e.BatchStats().Rows
	mustInsert(t, e, 100)
	if got := mustAggSelect(t, e, clamped); !reflect.DeepEqual(got, held) || !reflect.DeepEqual(got.Rows, mustDefine(t, e, clamped).Rows) {
		t.Fatalf("past the clamp: %+v, held %+v", got, held)
	}
	st1 := c.Cache().Stats()
	if st1.Hits != st0.Hits+1 || st1.Revalidated != st0.Revalidated+1 || e.BatchStats().Rows != rows {
		t.Fatalf("a write past the clamp: cache %+v -> %+v, %d rows folded", st0, st1, e.BatchStats().Rows-rows)
	}
	mustInsert(t, e, 15)
	got := mustAggSelect(t, e, clamped)
	if n, _ := got.Rows[1][2].IntVal(); n != 11 || c.Cache().Stats().Misses != st1.Misses+1 {
		t.Fatalf("a write inside the clamp: window [10, 20) counts %d, want 11; cache %+v", n, c.Cache().Stats())
	}
}

func TestBatchStatsCounters(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("m"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 300; i++ {
		mustInsert(t, e, int64(i))
	}
	if st := e.BatchStats(); st != (BatchStats{}) {
		t.Fatalf("fresh entry has nonzero batch stats: %+v", st)
	}
	// Without a cache every execution folds every row; a hint changes
	// nothing.
	for i, hint := range []string{"", " using row", " using columnar"} {
		mustAggSelect(t, e, "select count(*) from m group by window(50)"+hint)
		if st := e.BatchStats(); st.Rows != int64(300*(i+1)) || st.RunsFolded != int64(i+1) {
			t.Fatalf("run %q: %+v, want %d rows, %d chunks folded", hint, st, 300*(i+1), i+1)
		}
	}
}

// sealedSensor builds an event relation of n elements (vt = 10·i, one int
// column) on the vt-ordered log with every full run sealed.
func sealedSensor(t testing.TB, c *Catalog, name string, n int) *Entry {
	t.Helper()
	e, err := c.Create(relation.Schema{
		Name: name, ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendSensor(t, e, 0, n)
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if got := e.Physical(); got.Org != storage.VTOrdered || got.Compaction.Runs != n/256 {
		t.Fatalf("set-up left %v with %d runs", got.Org, got.Compaction.Runs)
	}
	return e
}

// appendSensor inserts elements from..from+n-1 as one batch.
func appendSensor(t testing.TB, e *Entry, from, n int) {
	t.Helper()
	if err := appendSensorErr(e, from, n); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
}

func appendSensorErr(e *Entry, from, n int) error {
	ins := make([]relation.Insertion, n)
	for j := range ins {
		i := from + j
		ins[j] = relation.Insertion{
			VT:      element.EventAt(chronon.Chronon(10 * i)),
			Varying: []element.Value{element.Int(int64(i*7919%1000) - 300)},
		}
	}
	_, err := e.InsertBatch(context.Background(), ins, nil, false)
	return err
}

// mustDefine is the definition's answer on the entry's current view.
func mustDefine(t *testing.T, e *Entry, src string) *tsql.Result {
	t.Helper()
	q, err := tsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	res, err := e.view.Load().defined(q)
	if err != nil {
		t.Fatalf("definition of %q: %v", src, err)
	}
	return res
}

// TestRunPartialsSurviveAppends is the point of the second memo level: an
// append empties the result cache but not the run partials, so the next
// aggregate merges every full chunk and visits only the tail — for every
// statement whose cells are the same, sealed or not. The counters say so,
// and the partial lookups stay out of the query cache's own. Above the
// partials sit the answer's cells, kept from a statement's second execution
// on: after an append that reaches one of four windows the aggregate folds
// that window again and copies the other three.
func TestRunPartialsSurviveAppends(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 4*256+10)
	const src = "select count(*), sum(v) from s group by window(3000)"

	first := mustAggSelect(t, e, src)
	if st := e.BatchStats(); st.RunsFolded != 4 || st.RunsMerged != 0 || st.PartialsBuilt != 4 || st.PartialHits != 0 || st.Rebuilt != 0 {
		t.Fatalf("first execution: %+v", st)
	}
	if !reflect.DeepEqual(first.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("cold aggregate diverges from the definition")
	}
	// The first execution kept no cells — a statement asked once may never
	// be asked again — so the second takes the whole loop, and keeps them.
	appendSensor(t, e, 4*256+10, 50)
	cacheBefore := c.Cache().Stats()
	second := mustAggSelect(t, e, src)
	cacheAfter := c.Cache().Stats()
	st := e.BatchStats()
	if st.RunsFolded != 4 || st.RunsMerged != 4 || st.PartialHits != 4 || st.Rows != 4*256+10+60 || st.Rebuilt != 0 {
		t.Fatalf("after an append: %+v, want 4 more runs merged and only the 60-element tail visited", st)
	}
	if cacheAfter.Hits != cacheBefore.Hits || cacheAfter.Misses != cacheBefore.Misses+1 {
		t.Fatalf("query cache counted the partial lookup: %+v -> %+v", cacheBefore, cacheAfter)
	}
	if !reflect.DeepEqual(second.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("warm aggregate diverges from the definition")
	}
	// The next append (vt 10840) reaches window 3 of 0…3: that window is
	// folded again from the kept cells — chunk 3, which it cuts, merged for
	// it, and the tail — and the other three copied.
	appendSensor(t, e, 4*256+60, 1)
	b0, c0 := e.BatchStats(), c.Cache().Stats()
	third := mustAggSelect(t, e, src)
	if st, c1 := e.BatchStats(), c.Cache().Stats(); st.Rebuilt != 1 || st.WindowsRefolded != 1 || st.WindowsReused != 3 || st.RunsFolded != 4 ||
		st.RunsMerged != b0.RunsMerged+1 || st.PartialHits != b0.PartialHits+1 || st.Rows != b0.Rows+61 || c1.Hits != c0.Hits || c1.Misses != c0.Misses+1 {
		t.Fatalf("rebuilt after an append: %+v, before %+v; want window 3 alone folded again, chunk 3 merged for it and only the 61-element tail visited", st, b0)
	}
	if !reflect.DeepEqual(third.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("rebuilt aggregate diverges from the definition")
	}
	second = third
	// A statement applied around the same cells (LIMIT over the emitted
	// windows) has its own result but shares the cells — the key names them,
	// not the statement — so it folds nothing and reports no row visited.
	b0 = e.BatchStats()
	q, _ := tsql.Parse(src + " limit 1000")
	lim, _, touched, err := e.SelectCtx(context.Background(), q)
	if err != nil || !reflect.DeepEqual(lim.Rows, second.Rows) || touched != 0 {
		t.Fatalf("limited statement over the cells: touched %d, err %v", touched, err)
	}
	if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt+1 || st.WindowsRefolded != b0.WindowsRefolded || st.WindowsReused != b0.WindowsReused+4 || st.RunsMerged != b0.RunsMerged || st.Rows != b0.Rows {
		t.Fatalf("limited statement over the cells: %+v, before %+v", st, b0)
	}
	// Another window mode over the same cells reuses them.
	if got := mustAggSelect(t, e, "select count(*), sum(v) from s group by window(3000, cumulative)"); !reflect.DeepEqual(got.Rows, mustDefine(t, e, "select count(*), sum(v) from s group by window(3000, cumulative)").Rows) {
		t.Fatal("cumulative over the tumbling query's cells diverges from the definition")
	}
	if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt+2 || st.RunsMerged != b0.RunsMerged || st.Rows != b0.Rows {
		t.Fatalf("cumulative over the tumbling query's cells: %+v, before %+v", st, b0)
	}
	// A chunk that fills is a unit before anything seals it: folded once,
	// merged from then on. The append (vt 10850…13400) reaches windows 3
	// and 4, two of four: chunk 4, inside them, is folded and learned;
	// chunk 3, which they cut, merged.
	appendSensor(t, e, 4*256+61, 256)
	if e.Physical().Compaction.Runs != 4 {
		t.Fatal("the append sealed a run; the test means to leave chunk 4 unsealed")
	}
	b0 = e.BatchStats()
	filled := mustAggSelect(t, e, src)
	if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt+1 || st.WindowsRefolded != b0.WindowsRefolded+2 || st.RunsFolded != 5 || st.RunsMerged != b0.RunsMerged+1 {
		t.Fatalf("after chunk 4 filled: %+v, before %+v; want it alone folded", st, b0)
	}
	if !reflect.DeepEqual(filled.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("an unsealed full chunk diverges from the definition")
	}
	appendSensor(t, e, 5*256+61, 1)
	b0 = e.BatchStats()
	mustAggSelect(t, e, src)
	if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt+1 || st.RunsFolded != 5 || st.RunsMerged != b0.RunsMerged+1 {
		t.Fatalf("unsealed full chunk, rebuilt: %+v, before %+v; want chunk 4 merged for window 4", st, b0)
	}
	publishEverything(t, e)
	b0 = e.BatchStats()
	mustAggSelect(t, e, src)
	if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt || st.RunsFolded != 5 || st.RunsMerged != b0.RunsMerged+5 {
		t.Fatalf("unsealed full chunk, warm: %+v, before %+v; want all 5 merged", st, b0)
	}

	// A statement clamped behind the head is not met by an append: its
	// answer is served across it without executing. A delete inside the
	// clamp meets it; the next execution folds the chunk closed into.
	const behind = "select count(*), sum(v) from s when valid during [0, 5120) group by window(2560)"
	held := mustAggSelect(t, e, behind)
	b0, c0 = e.BatchStats(), c.Cache().Stats()
	appendSensor(t, e, 5*256+62, 1)
	if got := mustAggSelect(t, e, behind); !reflect.DeepEqual(got, held) {
		t.Fatal("the clamped answer moved across an append past it")
	}
	if b1, c1 := e.BatchStats(), c.Cache().Stats(); b1 != b0 || c1.Hits != c0.Hits+1 || c1.Revalidated != c0.Revalidated+1 {
		t.Fatalf("an append past the clamp: %+v -> %+v, cache %+v -> %+v", b0, b1, c0, c1)
	}
	if err := remove(e, e.view.Load().elems()[3].ES); err != nil {
		t.Fatal(err)
	}
	got := mustAggSelect(t, e, behind)
	if reflect.DeepEqual(got.Rows, held.Rows) || !reflect.DeepEqual(got.Rows, mustDefine(t, e, behind).Rows) {
		t.Fatal("a delete inside the clamp: the answer is not the definition's")
	}
	if b2 := e.BatchStats(); b2.RunsFolded != b0.RunsFolded+1 || c.Cache().Stats().Misses != c0.Misses+1 {
		t.Fatalf("a delete inside the clamp: %+v -> %+v, want chunk 0 folded again", b0, b2)
	}

	// With the cache off nothing is memoized and nothing is looked up.
	off := New(testConfig(t.TempDir()))
	eo := sealedSensor(t, off, "s", 4*256+10)
	for range 2 {
		mustAggSelect(t, eo, src)
	}
	if st := eo.BatchStats(); st.RunsFolded != 8 || st.RunsMerged != 0 || st.PartialHits+st.PartialsBuilt != 0 {
		t.Fatalf("cache off: %+v", st)
	}
}

// TestChunkPartialsUnderAClampWithoutSealing closes the gap PR 19 left: a
// full chunk knows its valid-time envelope without being sealed, so on a
// relation no advisor ever compacts a clamped aggregate prunes the chunks the
// clamp misses, memoizes the ones it contains, and after a write inside the
// clamp merges those, and the ones it cuts for the windows wholly inside it,
// and folds a cut chunk only where the clamp cuts a window it populates. A
// write outside the clamp leaves the whole answer standing: it is served
// from the result cache and nothing is merged or folded. The execution after
// the first write inside takes the whole loop and keeps the answer's cells;
// after a second, which reaches one window, that window alone is folded
// again from them. 4 chunks of 2560 chronons each and a tail, on the
// tt-ordered log; windows of 3000.
func TestChunkPartialsUnderAClampWithoutSealing(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(relation.Schema{
		Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendSensor(t, e, 0, 4*256+10)
	if got := e.Physical(); got.Org != storage.TTOrdered || got.Compaction.Runs != 0 {
		t.Fatalf("set-up left %v with %d sealed runs", got.Org, got.Compaction.Runs)
	}
	insertAt := func(vt int64) {
		t.Helper()
		if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(vt)), Varying: []element.Value{element.Int(vt % 97)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		clamp          string
		inside         int64 // a valid time inside the clamp
		folded, merged int64 // warm, after a write inside the clamp
		// after a second write there, folding its window again
		foldedOne, mergedOne int64
	}{
		// chunks 1 and 2 exactly; 0 and 3 pruned. Window 0 is cut by the
		// clamp and populated by chunk 1, which is folded for it.
		{"[2560, 7680)", 2560, 0, 2, 1, 0},
		// cuts chunk 1, which merges for window 1, whole inside the clamp.
		// Window 2 is cut by the clamp and populated by chunk 2.
		{"[3000, 7680)", 7679, 0, 2, 1, 0},
		// every chunk inside; window 0 holds chunk 0 and is cut from
		// chunk 1's partial, both merged.
		{"[0, 20000)", 0, 0, 4, 0, 2},
	} {
		src := "select count(*), sum(v) from s when valid during " + tc.clamp + " group by window(3000) using row"
		held := mustAggSelect(t, e, src)
		insertAt(1_000_000) // outside every clamp: the answer stands
		before, hits := e.BatchStats(), c.Cache().Stats().Revalidated
		if got := mustAggSelect(t, e, src); !reflect.DeepEqual(got, held) || e.BatchStats() != before || c.Cache().Stats().Revalidated != hits+1 {
			t.Fatalf("clamp %s after a write outside it: executed %+v -> %+v", tc.clamp, before, e.BatchStats())
		}
		insertAt(tc.inside) // into the tail: every full chunk stays as it was
		warm := mustAggSelect(t, e, src)
		after := e.BatchStats()
		if f, m := after.RunsFolded-before.RunsFolded, after.RunsMerged-before.RunsMerged; f != tc.folded || m != tc.merged || after.Rebuilt != before.Rebuilt {
			t.Fatalf("clamp %s after a write inside it: folded %d, merged %d, rebuilt %d; want %d, %d and the whole loop", tc.clamp, f, m, after.Rebuilt-before.Rebuilt, tc.folded, tc.merged)
		}
		if !reflect.DeepEqual(warm.Rows, mustDefine(t, e, src).Rows) {
			t.Fatalf("clamp %s: warm rows diverge from the definition", tc.clamp)
		}
		insertAt(tc.inside)
		before = after
		one := mustAggSelect(t, e, src)
		after = e.BatchStats()
		if f, m := after.RunsFolded-before.RunsFolded, after.RunsMerged-before.RunsMerged; after.Rebuilt != before.Rebuilt+1 || after.WindowsRefolded != before.WindowsRefolded+1 || f != tc.foldedOne || m != tc.mergedOne {
			t.Fatalf("clamp %s after a second write in one window: %+v -> %+v; want that window rebuilt, %d folded, %d merged", tc.clamp, before, after, tc.foldedOne, tc.mergedOne)
		}
		if !reflect.DeepEqual(one.Rows, mustDefine(t, e, src).Rows) {
			t.Fatalf("clamp %s: rebuilt rows diverge from the definition", tc.clamp)
		}
	}
}

// TestClampedRowAggregateMergesWhatTheSearchFinds pins what the bounded loop
// costs the binary-search leaf: 40 sealed chunks (vt = 10·i, so
// chunk k covers [2560k, 2560k + 2550]), partials warm, one append. A clamp
// reaching the tail then merges every chunk it contains, folds the one it
// cuts and the tail, and passes over everything before it unread: those
// chunks' zone maps are corrupted to overlap the clamp, so a reader that so
// much as probed one would fold it. And what the execution allocates does
// not follow the clamp's width — a candidate slice would.
func TestClampedRowAggregateMergesWhatTheSearchFinds(t *testing.T) {
	const full, tail = 40, 10
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", full*256)
	end := int64(10*(full*256+tail-1) + 1) // past the newest element after the append
	sql := func(width int64) string {
		return fmt.Sprintf("select count(*), sum(v) from s when valid during [%d, %d) group by window(131072) using row", end-width, end)
	}
	narrow, wide := sql(16384), sql(65536)
	for _, src := range []string{narrow, wide} {
		mustAggSelect(t, e, src) // learns the chunks each clamp contains
	}
	appendSensor(t, e, full*256, tail)
	// Chunks 0–13 lie before the wide clamp, which cuts chunk 14.
	const before = 14
	if err := e.locked.Exclusive(func(*relation.Relation) error {
		for k := range before {
			if !storage.CorruptZone(e.engine.Store(), k, true, 20) {
				t.Fatalf("no full chunk %d", k)
			}
		}
		e.publish()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	b0 := e.BatchStats()
	q, err := tsql.Parse(wide)
	if err != nil {
		t.Fatal(err)
	}
	res, node, touched, err := e.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if leaf := node.Leaf().Kind; leaf != plan.VTBinarySearch {
		t.Fatalf("the clamp planned %v", leaf)
	}
	if !reflect.DeepEqual(res.Rows, mustDefine(t, e, wide).Rows) {
		t.Fatal("diverges from the definition")
	}
	b1 := e.BatchStats()
	folded, merged, pruned := b1.RunsFolded-b0.RunsFolded, b1.RunsMerged-b0.RunsMerged, b1.ChunksPruned-b0.ChunksPruned
	if folded > 2 || merged != full-before-folded || pruned != before || touched > int(folded)*256+tail {
		t.Fatalf("folded %d, merged %d, pruned %d, touched %d; want ≤ 2 folded and the tail, the rest of chunks %d–%d merged, the %d before them pruned unread",
			folded, merged, pruned, touched, before, full-1, before)
	}

	// Below the result cache, warm: the 64 k clamp merges four times the
	// chunks the 16 k one does, for the same allocations.
	allocs := map[string]float64{}
	for _, src := range []string{narrow, wide} {
		q, err := tsql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, fp := q.Fingerprints()
		v := e.view.Load()
		allocs[src] = testing.AllocsPerRun(20, func() {
			if _, _, _, err := e.executeAggregate(context.Background(), v, q, fp); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("warm: %.0f allocations over 16 k chronons, %.0f over 64 k", allocs[narrow], allocs[wide])
	if d := allocs[wide] - allocs[narrow]; d > 2 || d < -2 {
		t.Fatalf("a warm clamped aggregate allocates %.0f over 16 k chronons and %.0f over 64 k: the cost follows the clamp", allocs[narrow], allocs[wide])
	}
}

// TestRunPartialsPinnedView: a reader still holding an old view after
// later closes must not be answered from the partials those closes
// produced — and must not put its own older ones in their place.
func TestRunPartialsPinnedView(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 3*256+5)
	ctx := context.Background()
	q, err := tsql.Parse("select count(*), sum(v), max(v) from s group by window(3000)")
	if err != nil {
		t.Fatal(err)
	}
	_, fp := q.Fingerprints()
	pinned := e.view.Load()
	before, _, _, err := e.executeAggregate(ctx, pinned, q, fp)
	if err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{7, 300, 301} { // runs 0 and 1
		if err := remove(e, pinned.elems()[i].ES); err != nil {
			t.Fatal(err)
		}
	}
	live, _, st, err := e.executeAggregate(ctx, e.view.Load(), q, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsMerged != 1 || st.RunsFolded != 2 {
		t.Fatalf("after closes in two runs: %+v", st)
	}
	if reflect.DeepEqual(live.Rows, before.Rows) {
		t.Fatal("the deletes did not change the answer; the test proves nothing")
	}

	old, _, st, err := e.executeAggregate(ctx, pinned, q, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old.Rows, before.Rows) {
		t.Fatalf("pinned view answered from later partials:\nwant %+v\ngot  %+v", before.Rows, old.Rows)
	}
	if st.RunsMerged != 1 || st.RunsFolded != 2 {
		t.Fatalf("pinned view: %+v, want the two closed-into runs folded from its own snapshot", st)
	}
	if _, _, st, _ = e.executeAggregate(ctx, e.view.Load(), q, fp); st.RunsMerged != 3 {
		t.Fatalf("the pinned reader displaced the live partials: %+v", st)
	}
}

// TestRunPartialsConcurrentReadersAndWriter is the -race companion:
// aggregating readers share run partials through the cache while a writer
// appends batches, deletes inside sealed runs and seals new ones. Every
// reader checks its answer against the definition on the view it pinned.
func TestRunPartialsConcurrentReadersAndWriter(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	const n0 = 3*256 + 20
	e := sealedSensor(t, c, "s", n0)
	ctx := context.Background()
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		n := n0
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := appendSensorErr(e, n, 64); err != nil {
				t.Errorf("InsertBatch: %v", err)
				return
			}
			n += 64
			els := e.view.Load().elems()
			_ = remove(e, els[(round*131)%len(els)].ES) // repeats fail, legitimately
			if round%4 == 3 {
				e.Compact()
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			srcs := []string{
				"select count(*), sum(v) from s group by window(3000)",
				"select count(*), sum(v) from s group by window(3000, rolling 4)",
				"select max(v) from s when valid during [2000, 9000) group by window(3000)",
			}
			for i := 0; i < 60; i++ {
				src := srcs[(i+r)%len(srcs)]
				q, err := tsql.Parse(src)
				if err != nil {
					t.Error(err)
					return
				}
				_, fp := q.Fingerprints()
				v := e.view.Load()
				got, _, _, err := e.executeAggregate(ctx, v, q, fp)
				if err != nil {
					t.Errorf("aggregate: %v", err)
					return
				}
				want, err := v.defined(q)
				if err != nil {
					t.Errorf("definition: %v", err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%q on epoch %d: diverges from the definition\ndefined: %+v\ngot:     %+v", src, v.epoch, want.Rows, got.Rows)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := e.BatchStats(); st.RunsMerged == 0 || st.PartialHits == 0 {
		t.Fatalf("no partial was ever reused under concurrency: %+v", st)
	}
}

// TestChunkPartialsOnTheGeneralOrganizations pins, in counters, what the
// memo does where nothing is ever sealed: a heap and an undeclared tt-log of
// 20 full chunks and a tail. Warm, a delete inside a full chunk costs the
// next aggregate that one chunk's fold and nineteen merges; a
// write elsewhere costs nothing; and everything that rebuilds the store — a
// removing vacuum, a respecialization, a degrade — renews the generation, so
// the next aggregate folds every chunk once and the one after merges them.
// Those are the whole loop's counters, pinned on executions that must take
// it: the first, and those after a publish that records everything. The
// statement's two windows split the chunks 12 and 8 (chunk 12 straddles
// them); after a write that reaches one window, the aggregate folds that
// window again from the cells kept before it, merging only the chunks that
// reach that window — the one it cuts for its whole part.
func TestChunkPartialsOnTheGeneralOrganizations(t *testing.T) {
	const full, tail = 20, 37
	const src = "select sum(v) from s group by window(32768, cumulative)"
	for _, org := range []storage.Kind{storage.Heap, storage.TTOrdered} {
		t.Run(org.String(), func(t *testing.T) {
			c := New(cachedConfig(t.TempDir()))
			e, err := c.Create(relation.Schema{
				Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
				Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if org == storage.Heap {
				onTheHeap(t, e)
			}
			n := 0
			load := func(k int) {
				appendSensor(t, e, n, k)
				n += k
			}
			load(1)
			load(1)
			load(full*256 + tail - 2)
			if got := e.Physical(); got.Org != org || got.Compaction.Runs != 0 {
				t.Fatalf("set-up left %v with %d sealed runs", got.Org, got.Compaction.Runs)
			}
			// agg runs the statement, holds it to the definition, and
			// returns what the execution folded, merged and visited, and
			// whether it was rebuilt from kept cells.
			agg := func(what string) (folded, merged int64, touched int, rebuilt bool) {
				t.Helper()
				q, err := tsql.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				before := e.BatchStats()
				res, _, touched, err := e.SelectCtx(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !reflect.DeepEqual(res.Rows, mustDefine(t, e, src).Rows) {
					t.Fatalf("%s: diverges from the definition", what)
				}
				after := e.BatchStats()
				return after.RunsFolded - before.RunsFolded, after.RunsMerged - before.RunsMerged, touched, after.Rebuilt > before.Rebuilt
			}
			tailLen := func() int { return e.view.Load().engine.Store().Len() % 256 }
			// foldsOnce: a new store folds all its full chunks, then merges
			// them; a later append rebuilds window 1 alone from the cells
			// kept, merging the chunks that reach it.
			foldsOnce := func(what string) {
				t.Helper()
				chunks := int64(e.view.Load().engine.Store().Len() / 256)
				if f, m, _, r := agg(what + ", cold"); f != chunks || m != 0 || r {
					t.Fatalf("%s, cold: folded %d, merged %d of %d chunks, rebuilt %v", what, f, m, chunks, r)
				}
				load(1) // the tail never fills in this test
				publishEverything(t, e)
				if f, m, _, r := agg(what + ", warm"); f != 0 || m != chunks || r {
					t.Fatalf("%s, warm: folded %d, merged %d of %d chunks, rebuilt %v", what, f, m, chunks, r)
				}
				load(1)
				if f, m, touched, r := agg(what + ", rebuilt"); f != 0 || m != 8 || touched != tailLen() || !r {
					t.Fatalf("%s, rebuilt: folded %d, merged %d of %d chunks, touched %d, rebuilt %v; want the 8 that reach window 1 merged", what, f, m, chunks, touched, r)
				}
			}
			foldsOnce("as loaded")

			els := e.view.Load().elems()
			if err := remove(e, els[7*256+100].ES); err != nil {
				t.Fatal(err)
			}
			publishEverything(t, e)
			if f, m, touched, _ := agg("after a delete in chunk 7"); f != 1 || m != full-1 || touched != 256+tailLen() {
				t.Fatalf("after a delete in chunk 7: folded %d, merged %d, touched %d; want that chunk alone and the tail", f, m, touched)
			}
			// The same from the kept cells: window 0 alone is folded again —
			// chunk 3, closed into, folded; the other eleven inside window 0
			// and chunk 12, which it cuts, merged; the tail visited.
			if err := remove(e, els[3*256+100].ES); err != nil {
				t.Fatal(err)
			}
			if f, m, touched, r := agg("rebuilt after a delete in chunk 3"); f != 1 || m != 12 || touched != 256+tailLen() || !r {
				t.Fatalf("rebuilt after a delete in chunk 3: folded %d, merged %d, touched %d, rebuilt %v", f, m, touched, r)
			}
			if err := remove(e, els[full*256+3].ES); err != nil { // the tail is not a run
				t.Fatal(err)
			}
			if f, m, _, r := agg("rebuilt after a delete in the tail"); f != 0 || m != 8 || !r {
				t.Fatalf("rebuilt after a delete in the tail: folded %d, merged %d, rebuilt %v", f, m, r)
			}
			publishEverything(t, e)
			if f, m, _, _ := agg("after a delete in the tail"); f != 0 || m != full {
				t.Fatalf("after a delete in the tail: folded %d, merged %d", f, m)
			}
			// Another window mode over the same cells folds nothing; over the
			// same partials, after a publish no kept cells survive, it folds
			// only the tail.
			b0 := e.BatchStats()
			mustAggSelect(t, e, "select sum(v) from s group by window(32768)")
			if st := e.BatchStats(); st.Rebuilt != b0.Rebuilt+1 || st.RunsFolded != b0.RunsFolded || st.RunsMerged != b0.RunsMerged || st.Rows != b0.Rows {
				t.Fatalf("tumbling over the cumulative statement's cells: %+v, before %+v", st, b0)
			}
			publishEverything(t, e)
			b0 = e.BatchStats()
			mustAggSelect(t, e, "select sum(v) from s group by window(32768)")
			if st := e.BatchStats(); st.RunsFolded != b0.RunsFolded || st.RunsMerged != b0.RunsMerged+full {
				t.Fatalf("tumbling over the cumulative statement's partials: %+v, before %+v", st, b0)
			}

			gen := e.view.Load().gen
			if removed, err := e.Vacuum(chronon.Chronon(1 << 40)); err != nil || removed != 3 || e.view.Load().gen == gen {
				t.Fatalf("Vacuum removed %d (%v) and kept generation %d", removed, err, gen)
			}
			foldsOnce("after a removing vacuum")
			// The vacuum's rebuild advised the store afresh: the heap's leg is
			// on the tt-ordered log from here on, like the other.
			if got := e.Physical().Org; got != storage.TTOrdered {
				t.Fatalf("after a removing vacuum: on the %v", got)
			}
			// A migration and a degrade re-label the store they find: same
			// chunks, same close counts, same generation. The first aggregate
			// after either therefore merges every full chunk from the partial
			// it already has and folds none — the tail is not a run — and the
			// chunks are the very arrays from before, so neither can cost what
			// the relation holds.
			gen = e.view.Load().gen
			chunks := func() (arrays []**element.Element) {
				storage.Runs(e.view.Load().engine.Store())(func(run []*element.Element) bool {
					arrays = append(arrays, &run[0])
					return true
				})
				return arrays
			}
			relabelled := func(what string, org storage.Kind, before []**element.Element) {
				t.Helper()
				if got := e.Physical().Org; got != org || e.view.Load().gen != gen {
					t.Fatalf("%s: on %v at generation %d, want %v at %d", what, got, e.view.Load().gen, org, gen)
				}
				if after := chunks(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: the store's %d chunks are not the %d arrays it had", what, len(after), len(before))
				}
				if f, m, _, _ := agg(what); f != 0 || m != full {
					t.Fatalf("%s: folded %d, merged %d of %d chunks; want every one merged", what, f, m, full)
				}
			}
			before := chunks()
			if _, migrated, err := e.Respecialize(); err != nil || !migrated {
				t.Fatalf("Respecialize: migrated %v, %v", migrated, err)
			}
			relabelled("after respecializing", storage.VTOrdered, before)
			if _, err := insert(e, relation.Insertion{VT: element.EventAt(5), Varying: []element.Value{element.Int(1)}}); err != nil {
				t.Fatal(err)
			}
			relabelled("after degrading", storage.TTOrdered, before)
		})
	}
}

// TestRebuildFallsBack: an answer is rebuilt from the cells kept at an
// earlier epoch only where those cells are exact and every change since is
// a bounded set of records the change log still holds, reaching at most
// half of the answer's windows; everywhere else the aggregate takes the
// whole chunk loop, as before there were cells, and the rebuilt counter
// says which it took. Cells are kept from a statement's second execution
// on. Every answer is the definition's.
func TestRebuildFallsBack(t *testing.T) {
	const src = "select count(*), sum(v) from s group by window(3000)"
	// ask runs a statement and reports whether it was rebuilt.
	ask := func(t *testing.T, e *Entry, src string) bool {
		t.Helper()
		before := e.BatchStats().Rebuilt
		if got := mustAggSelect(t, e, src); !reflect.DeepEqual(got.Rows, mustDefine(t, e, src).Rows) {
			t.Fatalf("%s diverges from the definition", src)
		}
		return e.BatchStats().Rebuilt > before
	}
	// keep asks src, writes, and asks again: the second, a repeat, keeps
	// the cells.
	keep := func(t *testing.T, e *Entry, src string, write func()) {
		t.Helper()
		ask(t, e, src)
		write()
		if ask(t, e, src) {
			t.Fatal("rebuilt from cells the first execution kept")
		}
	}
	t.Run("an append", func(t *testing.T) {
		e := sealedSensor(t, New(cachedConfig(t.TempDir())), "s", 4*256+10)
		keep(t, e, src, func() { appendSensor(t, e, 4*256+10, 1) })
		appendSensor(t, e, 4*256+11, 1)
		if !ask(t, e, src) {
			t.Fatal("an append into one window: not rebuilt")
		}
	})
	t.Run("float sum", func(t *testing.T) {
		c := New(cachedConfig(t.TempDir()))
		e, err := c.Create(relation.Schema{
			Name: "f", ValidTime: element.EventStamp, Granularity: chronon.Second,
			Varying: []relation.Column{{Name: "x", Type: element.KindFloat}},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		put := func(k int) {
			ins := make([]relation.Insertion, k)
			for j := range ins {
				ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(10 * (n + j))), Varying: []element.Value{element.Float(0.1 * float64(n+j))}}
			}
			if _, err := e.InsertBatch(context.Background(), ins, nil, false); err != nil {
				t.Fatal(err)
			}
			n += k
		}
		put(4*256 + 10)
		const sum, count = "select sum(x) from f group by window(3000)", "select count(x) from f group by window(3000)"
		ask(t, e, sum)
		keep(t, e, count, func() { put(1) })
		ask(t, e, sum)
		put(1)
		if ask(t, e, sum) {
			t.Fatal("a float sum was rebuilt: its cells are not exact and were never kept")
		}
		if !ask(t, e, count) {
			t.Fatal("a count over the same relation: not rebuilt")
		}
	})
	t.Run("as of", func(t *testing.T) {
		e := sealedSensor(t, New(cachedConfig(t.TempDir())), "s", 4*256+10)
		els := e.view.Load().elems()
		asOf := fmt.Sprintf("select count(*), sum(v) from s as of %d group by window(3000)", els[600].TTStart)
		for _, i := range []int{3, 4} { // stamped before the AS OF's tt: each meets the footprint
			ask(t, e, asOf)
			if err := remove(e, els[i].ES); err != nil {
				t.Fatal(err)
			}
			if ask(t, e, asOf) {
				t.Fatal("an AS OF statement was rebuilt")
			}
		}
	})
	t.Run("past the change log", func(t *testing.T) {
		e := sealedSensor(t, New(cachedConfig(t.TempDir())), "s", 4*256+10)
		n := 4*256 + 10
		next := func() {
			appendSensor(t, e, n, 1)
			n++
		}
		keep(t, e, src, next)
		for range changeLogSize + 1 {
			next()
		}
		if ask(t, e, src) {
			t.Fatalf("rebuilt across %d publishes; the log holds %d", changeLogSize+1, changeLogSize)
		}
		next()
		if !ask(t, e, src) {
			t.Fatal("the cells the whole loop kept: not rebuilt from")
		}
	})
	t.Run("an evicted entry", func(t *testing.T) {
		cfg := testConfig(t.TempDir())
		cfg.CacheBytes = 32 << 10
		c := New(cfg)
		e := sealedSensor(t, c, "s", 4*256+10)
		keep(t, e, src, func() { appendSensor(t, e, 4*256+10, 1) })
		q, _ := tsql.Parse(src)
		_, partialFP := q.Fingerprints()
		key := cellsKey(partialFP, vec.Filter{})
		if _, _, ok := c.Cache().Recorded("s", key, e.Epoch()); !ok {
			t.Fatal("no cells kept")
		}
		for w := 3001; c.Cache().Stats().Evictions < 64; w++ {
			mustAggSelect(t, e, fmt.Sprintf("select count(*), sum(v) from s group by window(%d)", w))
		}
		if _, _, ok := c.Cache().Recorded("s", key, e.Epoch()); ok {
			t.Fatal("the cells outlived 64 evictions; the test means them evicted")
		}
		appendSensor(t, e, 4*256+11, 1)
		if ask(t, e, src) {
			t.Fatal("rebuilt from evicted cells")
		}
	})
	t.Run("most windows", func(t *testing.T) {
		e := sealedSensor(t, New(cachedConfig(t.TempDir())), "s", 4*256+10)
		keep(t, e, src, func() { appendSensor(t, e, 4*256+10, 1) })
		if err := remove(e, e.view.Load().elems()[3].ES); err != nil { // window 0
			t.Fatal(err)
		}
		appendSensor(t, e, 4*256+11, 1) // window 3
		if !ask(t, e, src) {
			t.Fatal("two of four windows: not rebuilt")
		}
		if err := remove(e, e.view.Load().elems()[400].ES); err != nil { // window 1
			t.Fatal(err)
		}
		appendSensor(t, e, 4*256+12, 1)
		if err := remove(e, e.view.Load().elems()[600].ES); err != nil { // window 2
			t.Fatal(err)
		}
		if ask(t, e, src) {
			t.Fatal("three of four windows: rebuilt")
		}
	})
}

// TestRebuildAcrossACompaction: sealing changes no element and publishes no
// epoch, so an aggregate asked after a compaction is rebuilt from the cells
// kept before it — the window the appends since reached refolded, the rest
// copied — and is the definition's answer. (While compaction published, it
// recorded everything, and the aggregate after it took the whole loop.)
func TestRebuildAcrossACompaction(t *testing.T) {
	const src = "select count(*), sum(v) from s group by window(3000)"
	e := sealedSensor(t, New(cachedConfig(t.TempDir())), "s", 4*256+10)
	appendSensor(t, e, 4*256+10, 256) // fills chunk 4, unsealed
	ask := func() (rebuilt bool) {
		t.Helper()
		before := e.BatchStats().Rebuilt
		if got := mustAggSelect(t, e, src); !reflect.DeepEqual(got.Rows, mustDefine(t, e, src).Rows) {
			t.Fatalf("%s diverges from the definition", src)
		}
		return e.BatchStats().Rebuilt > before
	}
	ask()
	appendSensor(t, e, 5*256+10, 1)
	if ask() {
		t.Fatal("rebuilt from cells the first execution kept")
	}
	appendSensor(t, e, 5*256+11, 1)
	epoch := e.Epoch()
	if e.Compact() == 0 {
		t.Fatal("nothing to seal")
	}
	if e.Epoch() != epoch {
		t.Fatalf("the compaction published: epoch %d → %d", epoch, e.Epoch())
	}
	if !ask() {
		t.Fatal("not rebuilt across a compaction")
	}
}
