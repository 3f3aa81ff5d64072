package catalog

// Microbenchmarks for the two read paths: epoch-stamped snapshot reads
// and cache hits. `make bench-smoke` runs
// these at -benchtime=100ms as a cheap regression tripwire; the full
// S4 experiment (cmd/benchrunner -exp S4) measures the concurrent story.

import (
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

func benchEntry(b *testing.B, cfg Config, elements int) *Entry {
	b.Helper()
	cfg.Dir = b.TempDir()
	c := New(cfg)
	e, err := c.Create(relation.Schema{
		Name: "bench", ValidTime: element.EventStamp, Granularity: chronon.Second,
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	for vt := 0; vt < elements; vt++ {
		if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	return e
}

func benchTimeslices(b *testing.B, e *Entry, elements int) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt := chronon.Chronon((i * 7919) % elements)
		res, err := timesliceCtx(ctx, e, vt)
		if err != nil {
			b.Fatalf("Timeslice: %v", err)
		}
		if len(res.Elements) == 0 {
			b.Fatalf("timeslice at %d found nothing", vt)
		}
	}
}

func BenchmarkReadPathSnapshot(b *testing.B) {
	const elements = 4096
	e := benchEntry(b, Config{}, elements)
	benchTimeslices(b, e, elements)
}

// BenchmarkReadPathCacheHit is a result-cache hit: "timeslice" a small
// time-slice over 4 k events; "revalidated" the same time-slice asked after a
// head insert it cannot see, so every hit walks the change log one epoch and
// records the answer again (the insert runs outside the timer);
// "current-ledger-40k" the current state of a 40,000-element ledger — ≈ 7 MB
// of chunk images, more than one cache entry holds — read with its answer
// materialized into elements, and encoded; "answer-ledger-40k" the same read
// as the server makes it, AnswerCtx's answer encoded without materializing.
// Every full chunk is one image entry, so from the second read on each is
// spliced and none encoded (spliced/op: the ledger's 156 full chunks).
func BenchmarkReadPathCacheHit(b *testing.B) {
	ctx := context.Background()
	b.Run("timeslice", func(b *testing.B) {
		const elements = 4096
		e := benchEntry(b, Config{CacheBytes: 1 << 20}, elements)
		fixed := chronon.Chronon(elements / 2)
		if _, err := timesliceCtx(ctx, e, fixed); err != nil { // fill the cache
			b.Fatalf("warm: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := timesliceCtx(ctx, e, fixed)
			if err != nil {
				b.Fatalf("Timeslice: %v", err)
			}
			if len(res.Elements) == 0 {
				b.Fatal("cache hit returned nothing")
			}
		}
	})
	b.Run("revalidated", func(b *testing.B) {
		const elements = 4096
		e := benchEntry(b, Config{CacheBytes: 1 << 20}, elements)
		fixed := chronon.Chronon(elements / 2)
		if _, err := timesliceCtx(ctx, e, fixed); err != nil { // fill the cache
			b.Fatalf("warm: %v", err)
		}
		before := e.cache.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(elements + i))}); err != nil {
				b.Fatalf("Insert: %v", err)
			}
			b.StartTimer()
			res, err := timesliceCtx(ctx, e, fixed)
			if err != nil {
				b.Fatalf("Timeslice: %v", err)
			}
			if len(res.Elements) == 0 || res.Epoch != e.Epoch() {
				b.Fatalf("the hit returned %d elements at epoch %d of %d", len(res.Elements), res.Epoch, e.Epoch())
			}
		}
		b.StopTimer()
		if st := e.cache.Stats(); st.Revalidated-before.Revalidated != uint64(b.N) {
			b.Fatalf("%d of %d reads were served across the insert", st.Revalidated-before.Revalidated, b.N)
		}
	})
	for _, rows := range []bool{true, false} {
		name := "answer-ledger-40k"
		if rows {
			name = "current-ledger-40k"
		}
		b.Run(name, func(b *testing.B) { benchLedgerCurrent(b, rows) })
	}
}

// benchLedgerCurrent times a cache hit on the current state of a
// 40,000-element ledger, encoded; rows also reads the answer out into
// elements.
func benchLedgerCurrent(b *testing.B, rows bool) {
	ctx := context.Background()
	const n = 40_000
	e, _ := ledgerOf(b, storage.TTOrdered, n, 32<<20, denseLedger)
	var body []byte
	read := func() {
		var res answered
		var err error
		if rows {
			if res, err = currentCtx(ctx, e); len(res.Elements) != n {
				b.Fatalf("current: %d elements, %v", len(res.Elements), err)
			}
		} else {
			res.QueryResult, err = e.AnswerCtx(ctx, plan.Query{Kind: plan.QCurrent})
		}
		if a := res.Answer(); err != nil || a.Len() != n {
			b.Fatalf("current: %d versions, %v", a.Len(), err)
		}
		if body, err = (wire.QueryBody{Answer: *res.Answer(), Images: res.Images, Touched: res.Touched}).AppendJSON(body[:0]); err != nil {
			b.Fatal(err)
		}
	}
	read() // builds the images
	before := e.ImageStats()
	read()
	if st := e.ImageStats(); st.SpansEncoded != before.SpansEncoded || st.SpansSpliced-before.SpansSpliced != n/256 {
		b.Fatalf("the second read encoded %d of its full chunks and spliced %d; all %d are imaged",
			st.SpansEncoded-before.SpansEncoded, st.SpansSpliced-before.SpansSpliced, n/256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	b.StopTimer()
	st := e.ImageStats()
	b.ReportMetric(float64(st.SpansSpliced-before.SpansSpliced)/float64(b.N+1), "spliced/op")
}
