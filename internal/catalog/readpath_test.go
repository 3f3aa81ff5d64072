package catalog

// Read-path tests: the epoch-stamped snapshot views, the plan-keyed result
// cache — an answer kept with its epoch, served across the writes that
// cannot reach it — and their interaction with every mutation kind. The stress test is
// the -race companion of the design: readers pin a published view and never
// block behind (or observe half of) a concurrent writer.

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tsql"
	"repro/internal/wal"
)

func cachedConfig(dir string) Config {
	cfg := testConfig(dir)
	cfg.CacheBytes = 1 << 20
	return cfg
}

func mustInsert(t *testing.T, e *Entry, vt int64) *element.Element {
	t.Helper()
	el, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return el
}

func TestEpochAdvancesOnEveryMutationKind(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	last := e.Epoch()
	if last == 0 {
		t.Fatal("fresh entry has epoch 0: no view published")
	}
	bump := func(op string) {
		t.Helper()
		if got := e.Epoch(); got <= last {
			t.Fatalf("%s: epoch %d did not advance past %d", op, got, last)
		} else {
			last = got
		}
	}

	el := mustInsert(t, e, 1)
	bump("insert")
	mustInsert(t, e, 2)
	bump("insert")
	if _, err := modify(e, el.ES, element.EventAt(3), nil); err != nil {
		t.Fatalf("modify: %v", err)
	}
	bump("modify")
	el3 := mustInsert(t, e, 4)
	bump("insert")
	if err := remove(e, el3.ES); err != nil {
		t.Fatalf("delete: %v", err)
	}
	bump("delete")
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{retro}); err != nil {
		t.Fatalf("declare: %v", err)
	}
	bump("declare")
	// A no-op vacuum (horizon below every closed TTEnd) publishes nothing:
	// reads keep their epoch and cache.
	if n, err := e.Vacuum(5); err != nil || n != 0 {
		t.Fatalf("no-op vacuum removed %d, err %v", n, err)
	}
	if got := e.Epoch(); got != last {
		t.Fatalf("no-op vacuum bumped epoch %d -> %d", last, got)
	}

	if n, err := e.Vacuum(chronon.Forever - 1); err != nil || n == 0 {
		t.Fatalf("vacuum removed %d, err %v", n, err)
	}
	bump("vacuum")
}

func TestQueryCacheHitsAndEpochInvalidation(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mustInsert(t, e, 5)
	ctx := context.Background()

	r1, err := timesliceCtx(ctx, e, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	st0 := c.Cache().Stats()
	r2, err := timesliceCtx(ctx, e, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	st1 := c.Cache().Stats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("repeat timeslice was not a cache hit: %+v -> %+v", st0, st1)
	}
	if len(r2.Elements) != len(r1.Elements) || r2.Epoch != r1.Epoch {
		t.Fatalf("cached result diverged: %+v vs %+v", r2, r1)
	}
	// Per-plan-kind accounting must keep counting on hits.
	if r1.Node != nil {
		kind := r1.Node.Leaf().Kind.String()
		if got := e.PlanStats()[kind].Queries; got < 2 {
			t.Fatalf("plan kind %q counted %d queries, want >= 2", kind, got)
		}
	}

	// A write the time-slice cannot see — valid elsewhere — leaves its
	// answer standing: a hit at the new epoch, counted revalidated.
	mustInsert(t, e, 9)
	rv, err := timesliceCtx(ctx, e, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	if st := c.Cache().Stats(); st.Hits != st1.Hits+1 || st.Revalidated != st1.Revalidated+1 || rv.Epoch != e.Epoch() || len(rv.Elements) != len(r1.Elements) {
		t.Fatalf("after a write at vt 9: epoch %d of %d, %d elements, cache %+v", rv.Epoch, e.Epoch(), len(rv.Elements), st)
	}
	st1 = c.Cache().Stats()

	// A write valid at the instant meets it: the same query misses and
	// recomputes against the new view.
	mustInsert(t, e, 5)
	r3, err := timesliceCtx(ctx, e, 5)
	if err != nil {
		t.Fatalf("timeslice: %v", err)
	}
	if r3.Epoch <= r1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", r1.Epoch, r3.Epoch)
	}
	if len(r3.Elements) != len(r1.Elements)+1 {
		t.Fatalf("post-mutation timeslice saw %d elements, want %d",
			len(r3.Elements), len(r1.Elements)+1)
	}
	st2 := c.Cache().Stats()
	if st2.Hits != st1.Hits || st2.Misses != st1.Misses+1 {
		t.Fatalf("post-mutation query served stale cache: %+v", st2)
	}

	// Declare and vacuum change everything: fresh epoch, fresh miss — the
	// vacuum's writes at vt 4 alone would not have.
	for _, step := range []struct {
		op  string
		run func() error
	}{
		{"declare", func() error {
			retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
			return e.Declare([]constraint.Descriptor{retro})
		}},
		{"vacuum", func() error {
			el := mustInsert(t, e, 4)
			if err := remove(e, el.ES); err != nil {
				return err
			}
			_, err := e.Vacuum(chronon.Forever - 1)
			return err
		}},
	} {
		before, _ := timesliceCtx(ctx, e, 5)
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.op, err)
		}
		misses := c.Cache().Stats().Misses
		after, err := timesliceCtx(ctx, e, 5)
		if err != nil {
			t.Fatalf("%s timeslice: %v", step.op, err)
		}
		if after.Epoch <= before.Epoch || c.Cache().Stats().Misses != misses+1 {
			t.Fatalf("%s did not invalidate: epoch %d -> %d, %d misses", step.op, before.Epoch, after.Epoch, c.Cache().Stats().Misses-misses)
		}
	}
}

func TestWALReplayPublishesFreshView(t *testing.T) {
	dir := t.TempDir()
	walDir := t.TempDir()
	wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := cachedConfig(dir)
	cfg.WAL = wlog
	c := New(cfg)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	mustInsert(t, e, 1)
	el := mustInsert(t, e, 2)
	if err := remove(e, el.ES); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Reopen: replay rebuilds the relation, and the entry must publish a
	// view whose epoch reflects the replayed history — not a stale or
	// zero-epoch view of the empty relation.
	wlog2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	defer wlog2.Close()
	cfg2 := cachedConfig(dir)
	cfg2.WAL = wlog2
	c2 := New(cfg2)
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e2.Epoch() == 0 {
		t.Fatal("replayed entry has epoch 0")
	}
	res, err := currentCtx(context.Background(), e2)
	if err != nil {
		t.Fatalf("current: %v", err)
	}
	if len(res.Elements) != 1 {
		t.Fatalf("replayed current = %d elements, want 1", len(res.Elements))
	}
	if res.Epoch != e2.Epoch() {
		t.Fatalf("result epoch %d != entry epoch %d", res.Epoch, e2.Epoch())
	}
}

// TestTimesliceAsOfReportsWhatItVisited: the bitemporal read's accounting is
// elements visited plus one probe per pruned chunk, the time-slice scan's
// rule, in the result, in the per-plan books and on a cache hit (nothing
// scanned). 700 undeclared events on the tt-ordered log, 10 chronons of
// transaction time apart: chunks 0 and 1 are full, 188 elements are the tail.
func TestTimesliceAsOfReportsWhatItVisited(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(eventSchema("r"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 700; i++ {
		mustInsert(t, e, int64(100+i))
	}
	if org := e.Physical().Org; org != storage.TTOrdered {
		t.Fatalf("set-up left the relation on %v", org)
	}
	els := e.view.Load().elems()
	at := els[256+40]
	for _, tc := range []struct {
		what    string
		tt      chronon.Chronon
		touched int
		found   bool
	}{
		// Chunk 0's envelope misses: one probe; chunk 1 and the tail are visited.
		{"as of now", 1 << 40, 1 + 256 + 188, true},
		// The tail begins after tt: one probe there ends the scan.
		{"as of the element's own insertion", at.TTStart, 1 + 256 + 1, true},
		// Chunk 1 begins after tt: the scan ends on its probe, having pruned chunk 0.
		{"as of before chunk 1", els[256].TTStart - 1, 1 + 1, false},
	} {
		before := e.PlanStats()["full-scan"]
		res, err := timesliceAsOfCtx(context.Background(), e, at.VT.Start(), tc.tt)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		// A version is found by its identity (surrogate and tt⊣) and its whole value: a sealed chunk's are materialized.
		if found := len(res.Elements) == 1 && res.Elements[0].ES == at.ES && res.Elements[0].TTEnd == at.TTEnd && reflect.DeepEqual(*res.Elements[0], *at); found != tc.found || len(res.Elements) > 1 || res.Touched != tc.touched {
			t.Fatalf("%s: %d elements, touched %d; want found %v, touched %d", tc.what, len(res.Elements), res.Touched, tc.found, tc.touched)
		}
		again, _ := timesliceAsOfCtx(context.Background(), e, at.VT.Start(), tc.tt)
		after := e.PlanStats()["full-scan"]
		if again.Touched != tc.touched || after.Queries != before.Queries+2 || after.Touched != before.Touched+int64(tc.touched) {
			t.Fatalf("%s: books moved %+v -> %+v over a scan touching %d and a cache hit", tc.what, before, after, tc.touched)
		}
	}
}

// TestSnapshotReadStress interleaves every mutation kind with every read
// kind. Run under -race; the assertions pin view consistency — a Current
// result from a pinned snapshot contains only elements open in that
// snapshot, even while writers concurrently close them.
func TestSnapshotReadStress(t *testing.T) {
	cfg := cachedConfig(t.TempDir())
	c := New(cfg)
	schema := eventSchema("stress")
	schema.Varying = []relation.Column{{Name: "v", Type: element.KindInt}}
	e, err := c.Create(schema)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sel, err := tsql.Parse("SELECT v FROM stress WHEN VALID AT 3")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	const (
		writers = 2
		readers = 6
		perG    = 150
	)
	ctx := context.Background()
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*element.Element
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0, 1:
					el, err := insert(e, relation.Insertion{
						VT:      element.EventAt(chronon.Chronon(i % 7)),
						Varying: []element.Value{element.Int(int64(i))},
					})
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					mine = append(mine, el)
				case 2:
					if len(mine) > 0 {
						el := mine[0]
						mine = mine[1:]
						if err := remove(e, el.ES); err != nil {
							t.Errorf("delete: %v", err)
							return
						}
					}
				case 3:
					if len(mine) > 0 {
						if _, err := modify(e, mine[0].ES, element.EventAt(chronon.Chronon(i%7)),
							[]element.Value{element.Int(int64(-i))}); err != nil {
							t.Errorf("modify: %v", err)
							return
						}
						mine = mine[1:]
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0:
					res, err := currentCtx(ctx, e)
					if err != nil {
						t.Errorf("current: %v", err)
						return
					}
					for _, el := range res.Elements {
						if !el.Current() {
							t.Errorf("pinned view returned a closed element (tt_end %d)", el.TTEnd)
							return
						}
					}
				case 1:
					if _, err := timesliceCtx(ctx, e, chronon.Chronon(i%7)); err != nil {
						t.Errorf("timeslice: %v", err)
						return
					}
				case 2:
					if _, err := rollbackCtx(ctx, e, chronon.Chronon(10*i)); err != nil {
						t.Errorf("rollback: %v", err)
						return
					}
				case 3:
					if _, err := timesliceAsOfCtx(ctx, e, chronon.Chronon(i%7), chronon.Chronon(10*i)); err != nil {
						t.Errorf("asof: %v", err)
						return
					}
				case 4:
					if _, _, _, err := e.SelectCtx(ctx, sel); err != nil {
						t.Errorf("select: %v", err)
						return
					}
				case 5:
					if n := e.Explain(sel); n == nil {
						t.Error("explain returned nil plan")
						return
					}
				}
			}
		}(r)
	}

	// A vacuum and a declare race the whole mix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := e.Vacuum(chronon.Chronon(100 * i)); err != nil {
				t.Errorf("vacuum: %v", err)
				return
			}
		}
	}()
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A concurrent writer may legitimately violate the declaration
		// mid-validation; rejection is fine, only races are bugs here.
		_ = e.Declare([]constraint.Descriptor{retro})
	}()

	wg.Wait()

	// The final view reconciles: live count equals inserts minus deletes.
	res, err := currentCtx(ctx, e)
	if err != nil {
		t.Fatalf("final current: %v", err)
	}
	for _, el := range res.Elements {
		if !el.Current() {
			t.Fatalf("final view holds closed element %v", el.ES)
		}
	}
	if len(res.Elements) == 0 {
		t.Fatal("final current empty")
	}
}

// TestOlderViewNeverDisplacesAFresherResult holds the result cache's half of
// the one rule in qcache's put: an answer recorded at an epoch is never
// replaced by one an older pinned view computed. A reader still holding the
// view from before a delete inside a clamped aggregate's clamp gets that
// view's own answer — computed, since the entry is a later view's — and
// leaves the later answer where it is. Then readers race a writer that
// appends past the clamp and deletes inside it: every answer, served across
// epochs or computed, is the definition's on the view it came from.
func TestOlderViewNeverDisplacesAFresherResult(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 3*256+5) // vt = 10·i
	ctx := context.Background()
	const clamped = "select count(*), sum(v) from s when valid during [0, 5000) group by window(1000)"
	q, err := tsql.Parse(clamped)
	if err != nil {
		t.Fatal(err)
	}
	on := func(v *readView) *tsql.Result {
		t.Helper()
		res, _, _, err := e.selectOn(ctx, v, q)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := v.defined(q); err != nil || !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Fatalf("epoch %d: the answer is not the definition's (%v)", v.epoch, err)
		}
		return res
	}
	old := e.view.Load()
	first := on(old)
	if err := remove(e, old.elems()[7].ES); err != nil {
		t.Fatal(err)
	}
	fresh := e.view.Load()
	now := on(fresh)
	if reflect.DeepEqual(now.Rows, first.Rows) {
		t.Fatal("the delete did not change the answer; the test proves nothing")
	}
	st := c.Cache().Stats()
	if again := on(old); !reflect.DeepEqual(again.Rows, first.Rows) || c.Cache().Stats().Misses != st.Misses+1 {
		t.Fatalf("the older view was not answered afresh: cache %+v -> %+v", st, c.Cache().Stats())
	}
	st = c.Cache().Stats()
	if got := on(fresh); got != now || c.Cache().Stats().Hits != st.Hits+1 {
		t.Fatal("the older view displaced the fresher answer")
	}
	appendSensor(t, e, 3*256+5, 1) // past the clamp
	if got := on(e.view.Load()); got != now || c.Cache().Stats().Revalidated != st.Revalidated+1 {
		t.Fatal("the fresher answer was not served across an append past its clamp")
	}

	// The race: the writer books every view it publishes, so that a reader
	// can hold an element answer to the view of the epoch it names.
	var views sync.Map
	views.Store(e.Epoch(), e.view.Load())
	viewAt := func(ep uint64) *readView {
		for {
			if v, ok := views.Load(ep); ok {
				return v.(*readView)
			}
			runtime.Gosched()
		}
	}
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		n := 3*256 + 6
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if round%3 == 0 {
				els := e.view.Load().elems()
				_ = remove(e, els[(round*131)%len(els)].ES) // repeats fail, legitimately
			} else {
				if err := appendSensorErr(e, n, 4); err != nil {
					t.Errorf("InsertBatch: %v", err)
					return
				}
				n += 4
			}
			views.Store(e.Epoch(), e.view.Load())
		}
	}()
	srcs := []string{clamped, "select max(v) from s when valid during [2000, 9000) group by window(3000)", "select count(*) from s group by window(5000)"}
	for r := range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := range 60 {
				v, src := e.view.Load(), srcs[(i+r)%len(srcs)]
				q, err := tsql.Parse(src)
				if err != nil {
					t.Error(err)
					return
				}
				res, _, _, err := e.selectOn(ctx, v, q)
				if err != nil {
					t.Error(err)
					return
				}
				if want, err := v.defined(q); err != nil || !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("%q on epoch %d: not the definition's answer (%v)", src, v.epoch, err)
					return
				}
				ts, err := timesliceCtx(ctx, e, chronon.Chronon(10*(i%40)))
				if err != nil {
					t.Error(err)
					return
				}
				want := viewAt(ts.Epoch).engine.Timeslice(chronon.Chronon(10 * (i % 40)))
				if len(ts.Elements) != len(want.Elements) || len(ts.Elements) > 0 && !reflect.DeepEqual(ts.Elements[0], want.Elements[0]) {
					t.Errorf("time-slice at %d on epoch %d: %d elements, the view holds %d", 10*(i%40), ts.Epoch, len(ts.Elements), len(want.Elements))
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := c.Cache().Stats(); st.Revalidated == 0 {
		t.Fatalf("nothing was served across epochs under concurrency: %+v", st)
	}
}
