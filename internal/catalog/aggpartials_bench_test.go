package catalog

// BenchmarkAggregateAfterAppend is the tripwire for run partials: 100 k
// elements sealed into runs, then one 256-element batch before every
// aggregate (and a compaction every sixteenth, as the advisor would), so
// the result cache never answers and the sealed runs never change. "warm"
// runs with the query cache on (the partials live in it), "nocache" with
// CacheBytes = 0, where every run is decoded and folded — the direct path,
// which must stay where BenchmarkTemporalAggregateColumnar (internal/storage,
// same per-element work) puts it. The batch append is outside the timer.
// `make bench-smoke` runs it.

import (
	"context"
	"testing"

	"repro/internal/tsql"
)

func BenchmarkAggregateAfterAppend(b *testing.B) {
	const sealed = 390 * 256 // ≈ 100 k, all of it in full runs
	queries := []struct{ name, sql string }{
		{"count", "select count(*) from bench group by window(16384)"},
		{"sum", "select sum(v) from bench group by window(16384)"},
		{"rollingmax", "select max(v) from bench group by window(16384, rolling 8)"},
	}
	for _, cache := range []struct {
		name  string
		bytes int64
	}{{"warm", 32 << 20}, {"nocache", 0}} {
		for _, qc := range queries {
			b.Run(cache.name+"/"+qc.name, func(b *testing.B) {
				cfg := testConfig(b.TempDir())
				cfg.CacheBytes = cache.bytes
				e := sealedSensor(b, New(cfg), "bench", sealed)
				ctx := context.Background()
				n := sealed
				batch := func() {
					appendSensor(b, e, n, 256)
					n += 256
				}
				q, err := tsql.Parse(qc.sql)
				if err != nil {
					b.Fatal(err)
				}
				run := func() {
					res, _, _, err := e.SelectCtx(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no windows")
					}
				}
				run() // the first execution folds every run and memoizes
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					batch()
					if i%16 == 15 {
						e.Compact() // the advisor's cadence: the tail stays under 4096
					}
					b.StartTimer()
					run()
				}
				b.StopTimer()
				st := e.BatchStats()
				b.ReportMetric(float64(st.RunsMerged)/float64(b.N+1), "merged/op")
				b.ReportMetric(float64(st.RunsFolded)/float64(b.N+1), "folded/op")
			})
		}
	}
}
