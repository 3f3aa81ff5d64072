package catalog

// Chunk images below the server: what a read after a write re-encodes, what
// the memo costs and where it is charged, how it behaves past its budget and
// under a reader that holds an older view. The byte-identity matrix over HTTP
// is internal/server's TestSplicedBytesAreTheEncodedScan.

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
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
// resolves for it and without any.
func (e *Entry) bothEncodings(t testing.TB, v *readView, els []*element.Element, spans []storage.ChunkSpan) (spliced, plain []byte) {
	t.Helper()
	spliced, err := wire.QueryBody{Elements: els, Images: e.images(v, spans), Touched: len(els)}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = wire.QueryBody{Elements: els, Touched: len(els)}.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return spliced, plain
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
	const readAfterWriteAllocs = 60 // reads 46: the scan's result and spans as they grow, the cached result, one image, the extended set
	e, live := ledgerOf(t, storage.TTOrdered, n, 32<<20, denseLedger)
	ctx := context.Background()
	read := func() QueryResult {
		res, err := e.TimesliceCtx(ctx, 200_000)
		if err != nil || len(res.Elements) < 1900 {
			t.Fatalf("time-slice: %d elements, %v", len(res.Elements), err)
		}
		return res
	}
	cold := read()
	st := e.ImageStats()
	if st.Built != 16 || st.Rebuilt != 0 || st.SpansSpliced != 16 || len(cold.Images) != 16 {
		t.Fatalf("the first large time-slice over sixteen half-taken chunks: %+v, %d images", st, len(cold.Images))
	}
	if got := e.cache.Stats().Bytes; got < st.Bytes || st.Bytes < 16*256*100 {
		t.Fatalf("the images hold %d bytes and the cache is charged %d", st.Bytes, got)
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
		var res QueryResult
		worst = max(worst, mallocs(func() { res = read() }))
		after := e.ImageStats()
		if after.Rebuilt-before.Rebuilt != 1 || after.Built != before.Built || after.SpansSpliced-before.SpansSpliced != 16 {
			t.Fatalf("write %d: the read after it moved the counters %+v → %+v, want one chunk rebuilt", i, before, after)
		}
		v := e.view.Load()
		if spliced, plain := e.bothEncodings(t, v, res.Elements, res.spans); !bytes.Equal(spliced, plain) {
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
// and as-of reads on a general one — reports no span, looks nothing up, builds
// nothing, and allocates what it did before there were images.
func TestSmallAnswersBuildNoImages(t *testing.T) {
	// Reads 10 (11 under -race), as at the parent commit: the result slice as
	// it grows, the plan, its rendering, the cached result.
	const smallSliceAllocs = 11
	e, _ := ledgerOf(t, storage.TTOrdered, 52*256+40, 32<<20, denseLedger) // starts up to 667,000
	ctx := context.Background()
	vt := chronon.Chronon(600_000) // past the end of every long interval
	got := testing.AllocsPerRun(50, func() {
		vt += 50 // a new fingerprint each time: never the result cache
		res, err := e.TimesliceCtx(ctx, vt)
		if err != nil || len(res.Elements) == 0 || len(res.Elements) > 8 || res.spans != nil || res.Images != nil {
			t.Fatalf("time-slice at %d: %d elements, spans %v, %v", vt, len(res.Elements), res.spans, err)
		}
	})
	t.Logf("%.0f allocations per small time-slice", got)
	if st := e.ImageStats(); st != (ImageStats{}) {
		t.Fatalf("small answers moved the image counters: %+v", st)
	}
	if got > smallSliceAllocs {
		t.Fatalf("a small time-slice allocates %.0f objects, budget %d", got, smallSliceAllocs)
	}
}

// TestImagesPastTheBudgetFallBackToTheEncode: the images are one entry of the
// query cache and may not pass its per-entry budget. With room for none, or
// for a few of the chunks, the rest of the answer is encoded as before and
// the bytes are the same; with the cache off nothing is looked up at all.
func TestImagesPastTheBudgetFallBackToTheEncode(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		keeps      bool // some image fits
	}{
		{"cache off", 0, false},
		{"no image fits", 256 << 10, false}, // entries up to 32 KB; an image is ≈ 45 KB
		{"three images fit", 1 << 20, true}, // entries up to 128 KB
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := ledgerOf(t, storage.TTOrdered, 8*256+40, tc.cacheBytes, denseLedger)
			for round := 0; round < 3; round++ {
				v := e.view.Load()
				res := v.engine.Current()
				if len(res.Spans) != 8 {
					t.Fatalf("current state of eight full chunks reported %d spans", len(res.Spans))
				}
				if spliced, plain := e.bothEncodings(t, v, res.Elements, res.Spans); !bytes.Equal(spliced, plain) {
					t.Fatalf("round %d: the spliced answer is not the encoded one", round)
				}
			}
			st := e.ImageStats()
			if st.SpansEncoded == 0 || (st.SpansSpliced > 0 && tc.cacheBytes == 0) || (st.Bytes > 0) != tc.keeps {
				t.Fatalf("counters under a %d-byte cache: %+v", tc.cacheBytes, st)
			}
			if max := e.cache.MaxEntry(); st.Bytes > max {
				t.Fatalf("the images hold %d bytes under a per-entry budget of %d", st.Bytes, max)
			}
			if tc.keeps && (st.Built < 2 || st.Built > 3+3) {
				t.Fatalf("a budget of three images built %d over three reads: each read may build one it cannot keep", st.Built)
			}
		})
	}
}

// TestOlderViewNeverDisplacesAFresherImage: a reader still holding the view
// from before a close gets, byte for byte, the answer of that view — the
// closed element still current in it — and leaves the image a later view
// recorded for the chunk where it is.
func TestOlderViewNeverDisplacesAFresherImage(t *testing.T) {
	e, live := ledgerOf(t, storage.TTOrdered, 4*256+40, 32<<20, denseLedger)
	ctx := context.Background()
	old := e.view.Load()
	oldRes := old.engine.Current()
	if spliced, plain := e.bothEncodings(t, old, oldRes.Elements, oldRes.Spans); !bytes.Equal(spliced, plain) {
		t.Fatal("cold: the spliced answer is not the encoded one")
	}
	if err := e.DeleteKeyed(ctx, live[300], ""); err != nil { // chunk 1
		t.Fatal(err)
	}
	fresh := e.view.Load()
	freshRes := fresh.engine.Current()
	if spliced, plain := e.bothEncodings(t, fresh, freshRes.Elements, freshRes.Spans); !bytes.Equal(spliced, plain) {
		t.Fatal("after the delete: the spliced answer is not the encoded one")
	}
	hit, _ := e.cache.Peek(e.imagesKey(fresh.gen))
	kept := hit.(*chunkImages).chunk(1)
	if kept.closes != freshRes.Spans[1].Closes || kept.closes != oldRes.Spans[1].Closes+1 {
		t.Fatalf("chunk 1 is kept at %d closes; the views saw %d and %d", kept.closes, oldRes.Spans[1].Closes, freshRes.Spans[1].Closes)
	}

	before := e.ImageStats()
	spliced, plain := e.bothEncodings(t, old, oldRes.Elements, oldRes.Spans)
	if !bytes.Equal(spliced, plain) || !bytes.Contains(spliced, []byte(`{"es":301,"os":301,"tt_start":3010,"tt_end":4611686018427387903,"current":true`)) {
		t.Fatal("the older view's answer is not its own encoded scan")
	}
	after := e.ImageStats()
	if after.Built != before.Built || after.Rebuilt != before.Rebuilt || after.SpansEncoded-before.SpansEncoded != 1 || after.SpansSpliced-before.SpansSpliced != 3 {
		t.Fatalf("the older view's read moved the counters %+v → %+v, want chunk 1 encoded and the rest spliced", before, after)
	}
	hit, _ = e.cache.Peek(e.imagesKey(fresh.gen))
	if now := hit.(*chunkImages).chunk(1); now != kept {
		t.Fatalf("the older view displaced chunk 1's image: %+v → %+v", kept, now)
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
	res := v.engine.Current()
	if len(res.Spans) != 2 {
		t.Fatalf("two full chunks reported %d spans", len(res.Spans))
	}
	var imgs []wire.ImageSpan
	// A hundred runs: under -race sync.Pool drops a quarter of what it is
	// given back, and ten runs of that averaged past the budget ≈ 1 time in 10.
	allocs := testing.AllocsPerRun(100, func() { imgs = e.images(v, res.Spans) })
	if st := e.ImageStats(); len(imgs) != 0 || st.Built != 0 || st.Rebuilt != 0 || st.SpansSpliced != 0 || st.SpansEncoded == 0 || st.Bytes != 0 {
		t.Fatalf("a relation of non-finite floats got %d images: %+v", len(imgs), st)
	}
	if allocs > 2*4+1+2 {
		t.Fatalf("refusing two chunks allocates %.0f objects; the two errors are 8, the empty answer one (two more under -race)", allocs)
	}
	if _, err := (wire.QueryBody{Elements: res.Elements, Images: imgs}).AppendJSON(nil); err == nil {
		t.Fatal("the answer was encoded")
	}
}
