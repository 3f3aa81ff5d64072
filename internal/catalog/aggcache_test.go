package catalog

// Aggregate read-path tests: window-aggregate results are memoized under
// (relation, "agg:"+fingerprint, epoch), so a repeat SELECT hits the cache
// and any mutation's epoch bump invalidates it; the batch-operator
// counters account executed engines, not cache replays; and below the
// result cache the per-run partials survive the writes that empty it.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
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

// TestRunPartialsSurviveAppends is the point of the second memo level: an
// append empties the result cache but not the run partials, so the next
// aggregate merges every sealed run and visits only the tail. The counters
// say so, and the partial lookups stay out of the query cache's own.
func TestRunPartialsSurviveAppends(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 4*256+10)
	const src = "select count(*), sum(v) from s group by window(3000)"
	rowOf := func() *tsql.Result { return mustAggSelect(t, e, src+" using row") }

	first := mustAggSelect(t, e, src+" using columnar")
	if st := e.BatchStats(); st.RunsFolded != 4 || st.RunsMerged != 0 || st.PartialMisses != 1 || st.PartialHits != 0 {
		t.Fatalf("first execution: %+v", st)
	}
	if !reflect.DeepEqual(first.Rows, rowOf().Rows) {
		t.Fatal("cold columnar diverges from row")
	}
	appendSensor(t, e, 4*256+10, 50)
	cacheBefore := c.Cache().Stats()
	second := mustAggSelect(t, e, src+" using columnar")
	cacheAfter := c.Cache().Stats()
	st := e.BatchStats()
	if st.RunsFolded != 4 || st.RunsMerged != 4 || st.PartialHits != 1 || st.Rows != 4*256+10+60 {
		t.Fatalf("after an append: %+v, want 4 more runs merged and only the 60-element tail visited", st)
	}
	if cacheAfter.Hits != cacheBefore.Hits || cacheAfter.Misses != cacheBefore.Misses+1 {
		t.Fatalf("query cache counted the partial lookup: %+v -> %+v", cacheBefore, cacheAfter)
	}
	if !reflect.DeepEqual(second.Rows, rowOf().Rows) {
		t.Fatal("warm columnar diverges from row")
	}
	// Another window mode over the same cells reuses them.
	mustAggSelect(t, e, "select count(*), sum(v) from s group by window(3000, cumulative) using columnar")
	if st := e.BatchStats(); st.RunsMerged != 8 {
		t.Fatalf("cumulative over the tumbling query's partials: %+v", st)
	}

	// With the cache off nothing is memoized and nothing is looked up.
	off := New(testConfig(t.TempDir()))
	eo := sealedSensor(t, off, "s", 4*256+10)
	for i := 0; i < 2; i++ {
		mustAggSelect(t, eo, src+" using columnar")
	}
	if st := eo.BatchStats(); st.RunsFolded != 8 || st.RunsMerged != 0 || st.PartialHits+st.PartialMisses != 0 {
		t.Fatalf("cache off: %+v", st)
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
// reader checks its columnar answer against the row engine on the view it
// pinned.
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
				want, _, _, err := e.executeAggregate(ctx, v, qRow, fp)
				if err != nil {
					t.Errorf("row: %v", err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%q on epoch %d: columnar diverges from row\nrow:      %+v\ncolumnar: %+v", src, v.epoch, want.Rows, got.Rows)
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
