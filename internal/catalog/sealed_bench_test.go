package catalog

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tsql"
)

// BenchmarkSealedPaths times the request paths over a declared relation of
// 100,096 two-attribute versions — the vt-ordered log, every full chunk of
// it sealed — with the result cache off, so every read computes: a
// time-slice, a rollback, the lookup and delete of a version in a sealed
// chunk, a clamped USING ROW aggregate, and the 256-element batch that fills
// a chunk. Each read names a time no earlier one did. agg-count-head runs
// with the cache, and so the chunk memo, on: sensor-append's statement, a
// COUNT(*) over the newest 4,096 chronons in tumbling windows, after a head
// insert (untimed) that empties the result cache; the clamp's lower edge
// cuts a window inside a sealed chunk, which is folded every time.
func BenchmarkSealedPaths(b *testing.B) {
	const n = 391 * 256
	ctx := context.Background()
	build := func(b *testing.B, cfg Config) *Entry {
		b.Helper()
		c := New(cfg)
		e, err := c.Create(relation.Schema{
			Name: "bench", ValidTime: element.EventStamp, Granularity: chronon.Second,
			Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
			Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
		})
		if err != nil {
			b.Fatal(err)
		}
		d, ok := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
		if !ok {
			b.Fatal("no descriptor")
		}
		if err := e.Declare([]constraint.Descriptor{d}); err != nil {
			b.Fatal(err)
		}
		for from := 0; from < n; from += 256 {
			sealedBenchBatch(b, e, from)
		}
		e.Compact()
		return e
	}
	b.Run("timeslice", func(b *testing.B) {
		e := build(b, testConfig(b.TempDir()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vt := chronon.Chronon(10 * ((i * 7919) % n))
			if res, err := e.TimesliceCtx(ctx, vt); err != nil || len(res.Elements) != 1 {
				b.Fatalf("time-slice at %v: %d elements, %v", vt, len(res.Elements), err)
			}
		}
	})
	b.Run("rollback", func(b *testing.B) {
		e := build(b, testConfig(b.TempDir()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The first 1–512 versions: a stretch of the two first chunks.
			tt := chronon.Chronon(10 * (3 + i%512))
			if _, err := e.RollbackCtx(ctx, tt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("byes-delete", func(b *testing.B) {
		e := build(b, testConfig(b.TempDir()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%(n-256) == 0 {
				b.StopTimer()
				e = build(b, testConfig(b.TempDir()))
				b.StartTimer()
			}
			es := surrogate.Surrogate(1 + (i*7919)%(n-256))
			var found bool
			_ = e.Locked().View(func(r *relation.Relation) error { _, found = r.ByES(es); return nil })
			if !found {
				b.Fatalf("no version %v", es)
			}
			if err := e.DeleteKeyed(ctx, es, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agg-row-clamped", func(b *testing.B) {
		e := build(b, testConfig(b.TempDir()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := 10 * (4096 * (i % 200))
			q, err := tsql.Parse(fmt.Sprintf("select sum(v) from bench when valid during [%d, %d) group by window(4096) using row", lo+1000, lo+1000+65536))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := e.SelectCtx(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agg-count-head", func(b *testing.B) {
		e, at := build(b, cachedConfig(b.TempDir())), n
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := e.InsertBatch(ctx, []relation.Insertion{{
				VT:        element.EventAt(chronon.Chronon(10 * at)),
				Invariant: []element.Value{element.String_("sensor-0")},
				Varying:   []element.Value{element.Int(int64(at % 1000))},
			}}, nil, false); err != nil {
				b.Fatal(err)
			}
			head := 10 * at
			at++
			q, err := tsql.Parse(fmt.Sprintf("select count(*) from bench when valid during [%d, %d) group by window(256)", head+1-4096, head+1))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, _, err := e.SelectCtx(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-fill", func(b *testing.B) {
		e, at := build(b, testConfig(b.TempDir())), n
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%256 == 0 {
				b.StopTimer()
				e, at = build(b, testConfig(b.TempDir())), n
				b.StartTimer()
			}
			sealedBenchBatch(b, e, at)
			at += 256
		}
	})
}

// sealedBenchBatch inserts versions from..from+255 as one batch: one chunk,
// when from is a multiple of 256.
func sealedBenchBatch(b *testing.B, e *Entry, from int) {
	b.Helper()
	ins := make([]relation.Insertion, 256)
	for j := range ins {
		i := from + j
		ins[j] = relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(10 * i)),
			Invariant: []element.Value{element.String_(fmt.Sprint("sensor-", i%7))},
			Varying:   []element.Value{element.Int(int64(i*7919%1000) - 300)},
		}
	}
	if _, err := e.InsertBatch(context.Background(), ins, nil, true); err != nil {
		b.Fatal(err)
	}
}
