package catalog

// Chunk images below the server: what a read after a write re-encodes, what
// the memo costs and where it is charged, how an image larger than a cache
// entry is used and dropped, and how every kind of the chunk memo behaves
// under a reader that holds an older view. The byte-identity matrix over HTTP
// is internal/server's TestSplicedBytesAreTheEncodedScan.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wire"
)

// denseLedger is tsbench's ledger: every second one of the first 4,000
// intervals is 400,000 chronons long and all of those cover vt 200,000, so the
// large time-slice takes half of each of the first sixteen chunks.
func denseLedger(_ storage.Kind, i int) relation.Insertion {
	ins := ledgerInsertion(storage.TTOrdered, i)
	if lo := chronon.Chronon(50 * i); i < 4000 && i%2 == 0 {
		ins.VT = element.SpanOf(lo, lo+400_000)
	} else if i%10 == 0 {
		ins.VT = element.SpanOf(lo, lo+60)
	}
	return ins
}

// bothEncodings encodes one answer over v with the images the catalog
// resolves for it and without any; the one without is also the encoding of
// the answer's materialized elements.
func (e *Entry) bothEncodings(t testing.TB, v *readView, a *storage.Answer) (spliced, plain []byte) {
	t.Helper()
	spliced, err := wire.QueryBody{Answer: *a, Images: e.images(v, a), Touched: a.Len()}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = wire.QueryBody{Answer: *a, Touched: a.Len()}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := json.Marshal(wire.QueryResponse{Elements: wire.FromElements(a.Elements()), Touched: a.Len()}); err != nil || !bytes.Equal(rows, plain) {
		t.Fatalf("the answer encodes otherwise than its elements (%v)", err)
	}
	return spliced, plain
}

// currentOf is the current state as v's engine answers it, unmaterialized.
func currentOf(v *readView) *storage.Answer {
	a, _, _, _ := v.engine.Answer(context.Background(), plan.Query{Kind: plan.QCurrent})
	return &a
}

// denseSpans counts the sealed spans of a that take enough of their chunk
// for an image.
func denseSpans(a *storage.Answer) int {
	n := 0
	for _, sp := range a.Spans() {
		if sp.Sealed() && sp.Len() >= imageMin {
			n++
		}
	}
	return n
}

// mallocs counts the objects f allocates, on this goroutine and any other:
// the tests that use it run nothing beside f.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReadAfterWriteEncodesTheChunksWrittenInto is the budget of the tentpole:
// a 2,000-element time-slice that follows a delete and an insert finds the
// result cache empty and re-encodes one chunk — the one the delete landed in
// — copying the other fifteen; what it allocates does not follow the answer's
// size beyond the result slice itself.
func TestReadAfterWriteEncodesTheChunksWrittenInto(t *testing.T) {
	const n = 20*256 + 40
	const readAfterWriteAllocs = 60 // reads 38: the scan's result and spans as they grow, the cached result, one image and its entry
	e, live := ledgerOf(t, storage.TTOrdered, n, 32<<20, denseLedger)
	ctx := context.Background()
	read := func() answered {
		res, err := timesliceCtx(ctx, e, 200_000)
		if err != nil || len(res.Elements) < 1900 {
			t.Fatalf("time-slice: %d elements, %v", len(res.Elements), err)
		}
		return res
	}
	cold := read()
	st := e.ImageStats()
	if st.Built != 16 || st.Hits != 0 || st.SpansSpliced != 16 || len(cold.Images) != 16 {
		t.Fatalf("the first large time-slice over sixteen half-taken chunks: %+v, %d images", st, len(cold.Images))
	}
	if cs := e.cache.Stats(); cs.ChunkBytes < 16*256*100 || cs.Bytes < cs.ChunkBytes {
		t.Fatalf("the images hold %d bytes and the cache is charged %d", cs.ChunkBytes, cs.Bytes)
	}
	worst := uint64(0)
	for i := 0; i < 8; i++ {
		j := (i*2 + 1) * 256 / 2 // a short-lived element of chunk i: not in the answer, in its chunk's image
		if err := e.DeleteKeyed(ctx, live[j], ""); err != nil {
			t.Fatal(err)
		}
		if _, err := e.InsertKeyed(ctx, denseLedger(storage.TTOrdered, n+i), ""); err != nil {
			t.Fatal(err)
		}
		before := e.ImageStats()
		var res answered
		worst = max(worst, mallocs(func() { res = read() }))
		after := e.ImageStats()
		if after.Built-before.Built != 1 || after.Hits-before.Hits != 15 || after.SpansSpliced-before.SpansSpliced != 16 {
			t.Fatalf("write %d: the read after it moved the counters %+v → %+v, want one chunk rebuilt", i, before, after)
		}
		v := e.view.Load()
		if spliced, plain := e.bothEncodings(t, v, res.Answer()); !bytes.Equal(spliced, plain) {
			t.Fatalf("write %d: the spliced answer is not the encoded one", i)
		}
	}
	t.Logf("%d allocations for the read after a write", worst)
	if worst > readAfterWriteAllocs {
		t.Fatalf("a 2,000-element read after a write allocates %d objects, budget %d", worst, readAfterWriteAllocs)
	}
}

// TestSmallAnswersBuildNoImages: an answer that takes an element or two from
// a chunk — every read on a specialized organization, the small time-slices
// and as-of reads on a general one — reports no dense span, looks nothing up,
// builds nothing, and allocates no more than it did before there were
// images: on the read path the server takes (AnswerCtx), and with the
// answer read out into elements.
func TestSmallAnswersBuildNoImages(t *testing.T) {
	// Read 10 (11 under -race) before there were images: the result slice as
	// it grew, the plan, its rendering, the cached result. Now 8 unmaterialized
	// (the answer's span for the slice, a plan name that allocates nothing) and
	// 11 materialized (the result slice, the slab's versions and their values).
	const smallSliceAllocs = 11
	e, _ := ledgerOf(t, storage.TTOrdered, 52*256+40, 32<<20, denseLedger) // starts up to 667,000
	ctx := context.Background()
	vt := chronon.Chronon(600_000) // past the end of every long interval
	read := func(rows bool) func() {
		return func() {
			vt += 50 // a new fingerprint each time: never the result cache
			pq := plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1}
			var res answered
			var err error
			if rows {
				res, err = answerCtx(ctx, e, pq)
			} else {
				res.QueryResult, err = e.AnswerCtx(ctx, pq)
			}
			if a := res.Answer(); err != nil || a.Len() == 0 || a.Len() > 8 || denseSpans(a) != 0 || res.Images != nil || rows != (res.Elements != nil) {
				t.Fatalf("time-slice at %d: %d elements, %d dense spans, %v", vt, a.Len(), denseSpans(a), err)
			}
		}
	}
	got := testing.AllocsPerRun(50, read(false))
	rows := testing.AllocsPerRun(50, read(true))
	t.Logf("%.0f allocations per small time-slice, %.0f materialized", got, rows)
	if st := e.ImageStats(); st != (ImageStats{}) {
		t.Fatalf("small answers moved the image counters: %+v", st)
	}
	if got > smallSliceAllocs {
		t.Fatalf("a small time-slice allocates %.0f objects, budget %d", got, smallSliceAllocs)
	}
	if rows > smallSliceAllocs {
		t.Fatalf("a small time-slice materialized allocates %.0f objects, budget %d", rows, smallSliceAllocs)
	}
}

// TestImagesPastTheBudgetFallBackToTheEncode: each image is one entry of the
// query cache, and one larger than an entry is not kept. It still serves the
// answer it was built for, whose bytes are the plain encode's; with the cache
// off nothing is looked up at all.
func TestImagesPastTheBudgetFallBackToTheEncode(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		kept       bool
	}{
		{"cache off", 0, false},
		{"no image fits", 256 << 10, false}, // entries up to 32 KB; an image is ≈ 45 KB
		{"every image fits", 1 << 20, true}, // entries up to 128 KB
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := ledgerOf(t, storage.TTOrdered, 8*256+40, tc.cacheBytes, denseLedger)
			for round := 0; round < 3; round++ {
				v := e.view.Load()
				a := currentOf(v)
				if denseSpans(a) != 8 {
					t.Fatalf("current state of eight full chunks reported %d dense spans", denseSpans(a))
				}
				if spliced, plain := e.bothEncodings(t, v, a); !bytes.Equal(spliced, plain) {
					t.Fatalf("round %d: the spliced answer is not the encoded one", round)
				}
			}
			st, held := e.ImageStats(), e.cache.Stats().ChunkBytes
			switch {
			case tc.cacheBytes == 0:
				if st != (ImageStats{SpansEncoded: 3 * 8}) {
					t.Fatalf("cache off: %+v", st)
				}
			case tc.kept:
				if st.Built != 8 || st.Hits != 2*8 || st.SpansSpliced != 3*8 || held == 0 {
					t.Fatalf("every image kept: %+v, %d bytes held", st, held)
				}
			default:
				if st.Built != 3*8 || st.Hits != 0 || st.SpansSpliced != 3*8 || held != 0 {
					t.Fatalf("no image kept: %+v, %d bytes held", st, held)
				}
			}
		})
	}
}

// TestOlderViewNeverDisplacesAFresherImage holds the chunk memo's one rule
// — a put never overwrites an entry recorded at a higher close count — for
// each of its kinds. A reader still holding the view from before a close
// into chunk 1 (so into group 0) gets the answer of that view, as the plain
// encode or fold over it gives it, and leaves the entry a later view
// recorded where it is, putting nothing.
func TestOlderViewNeverDisplacesAFresherImage(t *testing.T) {
	ctx := context.Background()
	const agg = "select sum(v) from ledger group by window(32768, cumulative)"
	q, err := tsql.Parse(agg)
	if err != nil {
		t.Fatal(err)
	}
	_, fp := q.Fingerprints()
	aggregate := func(e *Entry, v *readView) {
		t.Helper()
		got, _, _, err := e.executeAggregate(ctx, v, q, fp)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := v.defined(q); err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("epoch %d: the aggregate is not the definition's (%v)", v.epoch, err)
		}
	}
	for _, kind := range []struct {
		name, fp string
		ordinal  int // of the entry the close moves: chunk 1, group 0
		counts   func(e *Entry) *qcache.Counts
		read     func(e *Entry, v *readView)
	}{
		{"partials", "part:" + fp, 1, func(e *Entry) *qcache.Counts { return &e.partialMemo }, aggregate},
		{"groups", "grp:" + fp, 0, func(e *Entry) *qcache.Counts { return &e.groupMemo }, aggregate},
		{"images", "img", 1, func(e *Entry) *qcache.Counts { return &e.imageMemo }, func(e *Entry, v *readView) {
			t.Helper()
			if spliced, plain := e.bothEncodings(t, v, currentOf(v)); !bytes.Equal(spliced, plain) {
				t.Fatalf("epoch %d: the spliced answer is not the encoded one", v.epoch)
			}
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			e, live := ledgerOf(t, storage.TTOrdered, 16*256+40, 32<<20, denseLedger)
			old := e.view.Load()
			kind.read(e, old)
			kind.read(e, old)                                         // a group is built from chunks known before
			if err := e.DeleteKeyed(ctx, live[300], ""); err != nil { // chunk 1
				t.Fatal(err)
			}
			fresh := e.view.Load()
			kind.read(e, fresh)
			kind.read(e, fresh)
			kept := func(closes int) bool {
				_, exact, _ := e.cache.Chunks(e.name, kind.fp, fresh.gen, new(qcache.Counts)).Get(kind.ordinal, closes)
				return exact
			}
			if !kept(1) {
				t.Fatalf("entry %d is not kept at the fresh view's close count", kind.ordinal)
			}
			built := kind.counts(e).Built.Load()
			kind.read(e, old)
			if !kept(1) || kind.counts(e).Built.Load() != built {
				t.Fatalf("the older view displaced entry %d or put one (%d built, %d before)", kind.ordinal, kind.counts(e).Built.Load(), built)
			}
		})
	}
	// The older view's answer is its own: the closed element is in it.
	e, live := ledgerOf(t, storage.TTOrdered, 4*256+40, 32<<20, denseLedger)
	old := e.view.Load()
	res := currentOf(old)
	e.bothEncodings(t, old, res)
	if err := e.DeleteKeyed(ctx, live[300], ""); err != nil {
		t.Fatal(err)
	}
	fresh := e.view.Load()
	e.bothEncodings(t, fresh, currentOf(fresh))
	before := e.ImageStats()
	spliced, plain := e.bothEncodings(t, old, res)
	if !bytes.Equal(spliced, plain) || !bytes.Contains(spliced, []byte(`{"es":301,"os":301,"tt_start":3010,"tt_end":4611686018427387903,"current":true`)) {
		t.Fatal("the older view's answer is not its own encoded scan")
	}
	after := e.ImageStats()
	if after.Built != before.Built || after.SpansEncoded-before.SpansEncoded != 1 || after.SpansSpliced-before.SpansSpliced != 3 {
		t.Fatalf("the older view's read moved the counters %+v → %+v, want chunk 1 encoded and the rest spliced", before, after)
	}
}

// TestNonFiniteRelationBuildsNoImages is the hostile shape: a relation whose
// every element holds a float JSON cannot spell (an embedded caller can store
// one; the wire refuses them at ingest). Its chunks are refused an image —
// each for the cost of the encoder's error value and nothing kept — the
// answer is refused as it always was, and the counters say why: spans
// encoded, nothing built.
func TestNonFiniteRelationBuildsNoImages(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.CacheBytes = 32 << 20
	e, err := New(cfg).Create(relation.Schema{Name: "gauge", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "reading", Type: element.KindFloat}}})
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]relation.Insertion, 2*256+10)
	for i := range ins {
		ins[i] = relation.Insertion{VT: element.EventAt(chronon.Chronon(i)),
			Varying: []element.Value{element.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3])}}
	}
	if res, err := e.InsertBatch(context.Background(), ins, nil, true); err != nil || res.Stored != len(ins) {
		t.Fatalf("InsertBatch stored %d: %v", res.Stored, err)
	}
	v := e.view.Load()
	res := currentOf(v)
	if denseSpans(res) != 2 {
		t.Fatalf("two full chunks reported %d dense spans", denseSpans(res))
	}
	var imgs []wire.ImageSpan
	// A hundred runs: under -race sync.Pool drops a quarter of what it is
	// given back, and ten runs of that averaged past the budget ≈ 1 time in 10.
	allocs := testing.AllocsPerRun(100, func() { imgs = e.images(v, res) })
	if st := e.ImageStats(); len(imgs) != 0 || st.Built != 0 || st.Hits != 0 || st.SpansSpliced != 0 || st.SpansEncoded == 0 || e.cache.Stats().ChunkBytes != 0 {
		t.Fatalf("a relation of non-finite floats got %d images: %+v", len(imgs), st)
	}
	if allocs > 2*4+1+2 {
		t.Fatalf("refusing two chunks allocates %.0f objects; the two errors are 8, the empty answer one (two more under -race)", allocs)
	}
	if _, err := (wire.QueryBody{Answer: *res, Images: imgs}).AppendJSON(nil); err == nil {
		t.Fatal("the answer was encoded")
	}
}

// TestHeadSpansAreTheEncodedScan: an answer that draws on the tail chunk —
// columns, but still filling — with 1, imageMin−1, imageMin and
// ChunkSize−1 of its slots is encoded, gathered and streamed, to the bytes
// of the definition's elements (the relation's queries: refmodel over its
// versions, sharing no search with the engine) encoded one by one, on its
// first read and served again from the result cache, before and after a
// close into the tail and more inserts into it. Only the full chunks are
// imaged: a tail span, however dense, is never imaged or spliced — an image
// names a full chunk's runSize versions by (ordinal, closes), and the tail's
// next insert changes what its slots hold under the same name.
func TestHeadSpansAreTheEncodedScan(t *testing.T) {
	ctx := context.Background()
	for _, h := range []int{1, imageMin - 1, imageMin, storage.ChunkSize - 1} {
		t.Run(fmt.Sprintf("tail=%d", h), func(t *testing.T) {
			cfg := testConfig(t.TempDir())
			cfg.CacheBytes = 32 << 20
			e, err := New(cfg).Create(relation.Schema{
				Name: "r", ValidTime: element.IntervalStamp, Granularity: chronon.Second,
				Invariant: []relation.Column{{Name: "id", Type: element.KindString}},
				Varying:   []relation.Column{{Name: "v", Type: element.KindInt}, {Name: "note", Type: element.KindString}},
			})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			var ess []surrogate.Surrogate
			load := func(k int) {
				t.Helper()
				ins := make([]relation.Insertion, k)
				for j := range ins {
					i := n + j
					lo := chronon.Chronon(1000 + 10*i) // every version covers vt 500,000
					ins[j] = relation.Insertion{VT: element.SpanOf(lo, lo+1_000_000),
						Invariant: []element.Value{element.String_(fmt.Sprint("s", i%7))},
						Varying:   []element.Value{element.Int(int64(i) * 37), element.String_(fmt.Sprint("note ", i))}}
				}
				res, err := e.InsertBatch(ctx, ins, nil, false)
				if err != nil || res.Stored != k {
					t.Fatalf("InsertBatch stored %d of %d: %v", res.Stored, k, err)
				}
				for _, it := range res.Items {
					ess = append(ess, it.Elem.ES)
				}
				n += k
			}
			load(2*storage.ChunkSize + h)
			tail := 2 // the tail chunk's ordinal
			mid := e.view.Load().engine.Store().(*storage.RunStore).TTStartAt(2*storage.ChunkSize + h/2)
			queries := []struct {
				pq    plan.Query
				naive func(r *relation.Relation) []*element.Element
			}{
				{plan.Query{Kind: plan.QCurrent}, (*relation.Relation).Current},
				{plan.Query{Kind: plan.QTimeslice, VTLo: 500_000, VTHi: 500_001}, func(r *relation.Relation) []*element.Element { return r.Timeslice(500_000) }},
				{plan.Query{Kind: plan.QRollback, TT: 1 << 40}, func(r *relation.Relation) []*element.Element { return r.Rollback(1 << 40) }},
				{plan.Query{Kind: plan.QRollback, TT: int64(mid)}, func(r *relation.Relation) []*element.Element { return r.Rollback(mid) }}, // at a stored tt⊢: the strict search's edge
				{plan.Query{Kind: plan.QAsOf, VTLo: 500_000, TT: int64(mid)}, func(r *relation.Relation) []*element.Element { return r.TimesliceAsOf(500_000, mid) }},
			}
			check := func(state string) {
				t.Helper()
				for _, q := range queries {
					var naive []*element.Element
					_ = e.Locked().View(func(r *relation.Relation) error { naive = q.naive(r); return nil })
					for round := range 2 { // computed, then from the result cache
						res, err := e.AnswerCtx(ctx, q.pq)
						if err != nil {
							t.Fatal(err)
						}
						a := res.Answer()
						spans := a.Spans()
						onTail := 0
						for _, sp := range spans {
							if sp.Chunk() >= n/storage.ChunkSize {
								onTail += sp.Len()
								if sp.Sealed() {
									t.Fatalf("%s, %v: the span over the tail chunk %d says it is sealed", state, q.pq.Kind, sp.Chunk())
								}
							}
						}
						if state == "loaded" && q.pq.Kind != plan.QAsOf && onTail == 0 {
							t.Fatalf("%s, %v: the answer draws nothing from the tail", state, q.pq.Kind)
						}
						for _, im := range res.Images {
							if sp := &spans[im.Span]; !sp.Sealed() || sp.Chunk() >= n/storage.ChunkSize {
								t.Fatalf("%s, %v: span %d over chunk %d (sealed %v, %d slots) is imaged", state, q.pq.Kind, im.Span, sp.Chunk(), sp.Sealed(), sp.Len())
							}
						}
						body := wire.QueryBody{Answer: *a, Images: res.Images, Plan: res.Plan, PlanNode: wire.FromPlanNode(res.Node), Touched: res.Touched, Epoch: res.Epoch}
						want, err := json.Marshal(wire.QueryResponse{Elements: wire.FromElements(naive), Plan: body.Plan, PlanNode: body.PlanNode, Touched: body.Touched, Epoch: body.Epoch})
						if err != nil {
							t.Fatal(err)
						}
						gathered, err := body.AppendJSON(nil)
						if err != nil || !bytes.Equal(gathered, want) {
							t.Fatalf("%s, %v, round %d: gathered %d bytes against the naive encode's %d (%v)", state, q.pq.Kind, round, len(gathered), len(want), err)
						}
						var streamed bytes.Buffer
						if _, err := body.StreamJSON(&streamed, make([]byte, 0, 512)); err != nil || !bytes.Equal(streamed.Bytes(), append(want, '\n')) {
							t.Fatalf("%s, %v, round %d: streamed %d bytes against the naive encode's %d (%v)", state, q.pq.Kind, round, streamed.Len(), len(want)+1, err)
						}
					}
				}
			}
			check("loaded")
			if st := e.ImageStats(); st.Built != int64(tail) || st.SpansSpliced == 0 {
				t.Fatalf("reads over two full chunks and a tail of %d left %+v, want the two full chunks imaged", h, st)
			}
			if err := e.DeleteKeyed(ctx, ess[tail*storage.ChunkSize+h/2], ""); err != nil {
				t.Fatal(err)
			}
			check("after a close into the tail")
			load(min(3, storage.ChunkSize-h))
			check("after more inserts into the tail")
		})
	}
}
