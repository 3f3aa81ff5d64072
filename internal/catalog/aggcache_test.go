package catalog

// Aggregate read-path tests: window-aggregate results are memoized under
// (relation, "agg:"+fingerprint, epoch), so a repeat SELECT hits the cache
// and any mutation's epoch bump invalidates it; the batch-operator
// counters account executed engines, not cache replays; and below the
// result cache the per-run partials survive the writes that empty it.

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

	// A mutation bumps the epoch: the same statement re-executes and the
	// fresh result sees the new row — a stale cached window would not.
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

	// Row- and columnar-hinted forms fingerprint (and therefore cache)
	// separately, but must agree.
	rowRes := mustAggSelect(t, e, src+" using row")
	colRes := mustAggSelect(t, e, src+" using columnar")
	if !reflect.DeepEqual(rowRes, colRes) {
		t.Fatalf("hinted engines disagree:\nrow:      %+v\ncolumnar: %+v", rowRes, colRes)
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
	mustAggSelect(t, e, "select count(*) from m group by window(50) using columnar")
	st := e.BatchStats()
	if st.ColumnarPicks != 1 || st.RowPicks != 0 {
		t.Fatalf("picks after columnar run: %+v", st)
	}
	if st.Batches == 0 || st.Rows != 300 {
		t.Fatalf("columnar run consumed %d batches / %d rows, want >0 / 300", st.Batches, st.Rows)
	}
	mustAggSelect(t, e, "select count(*) from m group by window(50) using row")
	if st := e.BatchStats(); st.RowPicks != 1 {
		t.Fatalf("picks after row run: %+v", st)
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
// aggregate merges every full chunk and visits only the tail — on either
// engine, from one key, sealed or not. The counters say so, and the partial
// lookups stay out of the query cache's own.
func TestRunPartialsSurviveAppends(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 4*256+10)
	const src = "select count(*), sum(v) from s group by window(3000)"

	first := mustAggSelect(t, e, src+" using columnar")
	if st := e.BatchStats(); st.RunsFolded != 4 || st.RunsMerged != 0 || st.PartialsBuilt != 4 || st.PartialHits != 0 {
		t.Fatalf("first execution: %+v", st)
	}
	if !reflect.DeepEqual(first.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("cold columnar diverges from the definition")
	}
	appendSensor(t, e, 4*256+10, 50)
	cacheBefore := c.Cache().Stats()
	second := mustAggSelect(t, e, src+" using columnar")
	cacheAfter := c.Cache().Stats()
	st := e.BatchStats()
	if st.RunsFolded != 4 || st.RunsMerged != 4 || st.PartialHits != 4 || st.Rows != 4*256+10+60 {
		t.Fatalf("after an append: %+v, want 4 more runs merged and only the 60-element tail visited", st)
	}
	if cacheAfter.Hits != cacheBefore.Hits || cacheAfter.Misses != cacheBefore.Misses+1 {
		t.Fatalf("query cache counted the partial lookup: %+v -> %+v", cacheBefore, cacheAfter)
	}
	if !reflect.DeepEqual(second.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("warm columnar diverges from the definition")
	}
	// The row engine merges what the columnar one learned — the key names
	// the cells, not who folded them — and reports the 60 rows it visited;
	// batches and rows under BatchStats stay the columnar engine's.
	q, _ := tsql.Parse(src + " using row")
	row, _, touched, err := e.SelectCtx(context.Background(), q)
	if err != nil || !reflect.DeepEqual(row.Rows, second.Rows) || touched != 60 {
		t.Fatalf("row over the columnar partials: touched %d, err %v", touched, err)
	}
	if st := e.BatchStats(); st.RunsFolded != 4 || st.RunsMerged != 8 || st.RowPicks != 1 || st.Rows != 4*256+10+60 {
		t.Fatalf("row over the columnar partials: %+v", st)
	}
	// Another window mode over the same cells reuses them.
	mustAggSelect(t, e, "select count(*), sum(v) from s group by window(3000, cumulative) using columnar")
	if st := e.BatchStats(); st.RunsMerged != 12 {
		t.Fatalf("cumulative over the tumbling query's partials: %+v", st)
	}
	// A chunk that fills is a unit before anything seals it: folded once
	// (by the row engine here), merged from then on (by the columnar one).
	appendSensor(t, e, 4*256+60, 256)
	if e.Physical().Compaction.Runs != 4 {
		t.Fatal("the append sealed a run; the test means to leave chunk 4 unsealed")
	}
	filled := mustAggSelect(t, e, src+" using row")
	if st := e.BatchStats(); st.RunsFolded != 5 || st.RunsMerged != 16 {
		t.Fatalf("after chunk 4 filled: %+v, want it alone folded", st)
	}
	if !reflect.DeepEqual(filled.Rows, mustDefine(t, e, src).Rows) {
		t.Fatal("row over an unsealed full chunk diverges from the definition")
	}
	appendSensor(t, e, 5*256+60, 1)
	mustAggSelect(t, e, src+" using columnar")
	if st := e.BatchStats(); st.RunsFolded != 5 || st.RunsMerged != 21 {
		t.Fatalf("unsealed full chunk, warm: %+v", st)
	}

	// With the cache off nothing is memoized and nothing is looked up.
	off := New(testConfig(t.TempDir()))
	eo := sealedSensor(t, off, "s", 4*256+10)
	for _, engine := range []string{" using columnar", " using row"} {
		mustAggSelect(t, eo, src+engine)
	}
	if st := eo.BatchStats(); st.RunsFolded != 8 || st.RunsMerged != 0 || st.PartialHits+st.PartialsBuilt != 0 {
		t.Fatalf("cache off: %+v", st)
	}
}

// TestChunkPartialsUnderAClampWithoutSealing closes the gap PR 19 left: a
// full chunk knows its valid-time envelope without being sealed, so on a
// relation no advisor ever compacts a clamped aggregate prunes the chunks the
// clamp misses, memoizes the ones it contains, and after an append merges
// those and folds only what the clamp cuts. 4 chunks of 2560 chronons each
// and a tail, on the tt-ordered log.
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
	n := 4*256 + 10
	for _, tc := range []struct {
		clamp          string
		folded, merged int64 // warm, after an append
	}{
		{"[2560, 7680)", 0, 2}, // chunks 1 and 2 exactly; 0 and 3 pruned
		{"[3000, 7680)", 1, 1}, // cuts chunk 1
		{"[0, 20000)", 0, 4},   // every chunk inside
	} {
		src := "select count(*), sum(v) from s when valid during " + tc.clamp + " group by window(3000) using row"
		mustAggSelect(t, e, src)
		appendSensor(t, e, n, 1) // drops the result cache; every full chunk stays as it was
		n++
		before := e.BatchStats()
		warm := mustAggSelect(t, e, src)
		after := e.BatchStats()
		if f, m := after.RunsFolded-before.RunsFolded, after.RunsMerged-before.RunsMerged; f != tc.folded || m != tc.merged {
			t.Fatalf("clamp %s after an append: folded %d, merged %d; want %d, %d", tc.clamp, f, m, tc.folded, tc.merged)
		}
		if !reflect.DeepEqual(warm.Rows, mustDefine(t, e, src).Rows) {
			t.Fatalf("clamp %s: warm rows diverge from the definition", tc.clamp)
		}
	}
}

// TestClampedRowAggregateMergesWhatTheSearchFinds pins what the bounded loop
// costs the row engine's binary-search leaf: 40 sealed chunks (vt = 10·i, so
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
	q, err := tsql.Parse("select count(*), sum(v), max(v) from s group by window(3000) using columnar")
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
// reader checks both engines' answers — they share the partials — against
// the definition on the view it pinned.
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
				qCol, err := tsql.Parse(src + " using columnar")
				if err != nil {
					t.Error(err)
					return
				}
				qRow, _ := tsql.Parse(src + " using row")
				_, fp := qCol.Fingerprints()
				v := e.view.Load()
				got, _, _, err := e.executeAggregate(ctx, v, qCol, fp)
				if err != nil {
					t.Errorf("columnar: %v", err)
					return
				}
				row, _, _, err := e.executeAggregate(ctx, v, qRow, fp)
				if err != nil {
					t.Errorf("row: %v", err)
					return
				}
				want, err := v.defined(qCol)
				if err != nil {
					t.Errorf("definition: %v", err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(row.Rows, want.Rows) {
					t.Errorf("%q on epoch %d: engines diverge from the definition\ndefined:  %+v\nrow:      %+v\ncolumnar: %+v", src, v.epoch, want.Rows, row.Rows, got.Rows)
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
// next USING ROW aggregate that one chunk's fold and nineteen merges; a
// write elsewhere costs nothing; and everything that rebuilds the store — a
// removing vacuum, a respecialization, a degrade — renews the generation, so
// the next aggregate folds every chunk once and the one after merges them.
func TestChunkPartialsOnTheGeneralOrganizations(t *testing.T) {
	const full, tail = 20, 37
	const src = "select sum(v) from s group by window(32768, cumulative) using row"
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
			// returns what the execution folded, merged and visited.
			agg := func(what string) (folded, merged int64, touched int) {
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
				return after.RunsFolded - before.RunsFolded, after.RunsMerged - before.RunsMerged, touched
			}
			// foldsOnce: a new store folds all its full chunks, then merges them.
			foldsOnce := func(what string) {
				t.Helper()
				chunks := int64(e.view.Load().engine.Store().Len() / 256)
				if f, m, _ := agg(what + ", cold"); f != chunks || m != 0 {
					t.Fatalf("%s, cold: folded %d, merged %d of %d chunks", what, f, m, chunks)
				}
				load(1) // the tail never fills in this test
				if f, m, _ := agg(what + ", warm"); f != 0 || m != chunks {
					t.Fatalf("%s, warm: folded %d, merged %d of %d chunks", what, f, m, chunks)
				}
			}
			foldsOnce("as loaded")

			els := e.view.Load().elems()
			if err := remove(e, els[7*256+100].ES); err != nil {
				t.Fatal(err)
			}
			if f, m, touched := agg("after a delete in chunk 7"); f != 1 || m != full-1 || touched != 256+tail+1 {
				t.Fatalf("after a delete in chunk 7: folded %d, merged %d, touched %d; want that chunk alone and the tail", f, m, touched)
			}
			if err := remove(e, els[full*256+3].ES); err != nil { // the tail is not a run
				t.Fatal(err)
			}
			if f, m, _ := agg("after a delete in the tail"); f != 0 || m != full {
				t.Fatalf("after a delete in the tail: folded %d, merged %d", f, m)
			}
			mustAggSelect(t, e, "select sum(v) from s group by window(32768) using columnar")
			if st := e.BatchStats(); st.ColumnarPicks != 1 || st.Batches != 1 {
				t.Fatalf("columnar over the row engine's partials decoded more than the tail: %+v", st)
			}

			gen := e.view.Load().gen
			if removed, err := e.Vacuum(chronon.Chronon(1 << 40)); err != nil || removed != 2 || e.view.Load().gen == gen {
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
				if f, m, _ := agg(what); f != 0 || m != full {
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
