package catalog

// BenchmarkAggregateAfterAppend is the tripwire for run partials and kept
// cells: 100 k elements sealed into runs, then one 256-element batch before
// every aggregate (and a compaction every sixteenth, as the advisor would),
// so the result cache never answers and the sealed runs never change. Every
// 64 batches the relation is built again at its starting size, outside the
// timer, so what an operation costs does not follow -benchtime: each one
// runs on 100–116 k elements. "warm" runs with the query cache on (the
// partials and the cells live in it), "nocache" with CacheBytes = 0, where
// every run is folded — the direct path. Warm, an aggregate after a batch
// folds again only the windows the batch reached (windows/op) from the
// cells kept at the last one, merging the chunks those windows hold and
// cut; after the compaction, which records everything, it takes the whole
// loop: one partial per aligned group of 16 chunks and one per chunk past
// the last group (partials/op beside merged/op), and rows/op — the rows
// folded — beside folded/op. The clamped statement is the bounded loop's:
// warm, it merges the ≈ 24 chunks its clamp contains and folds the two it
// cuts, whose partials populate windows the clamp cuts; pruned/op counts the
// chunks passed over unread. `make bench-smoke` runs it.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/vec"
)

func BenchmarkAggregateAfterAppend(b *testing.B) {
	const (
		sealed  = 390 * 256 // ≈ 100 k, all of it in full runs
		rebuilt = 64        // batches between rebuilds
		compact = 16        // batches between compactions
	)
	queries := []struct{ name, sql string }{
		{"count", "select count(*) from bench group by window(16384)"},
		{"sum", "select sum(v) from bench group by window(16384)"},
		{"rollingmax", "select max(v) from bench group by window(16384, rolling 8)"},
		{"cumulative", "select count(*) from bench group by window(16384, cumulative)"},
		// firehose-analytics' clamped window: 65,536 chronons inside the
		// sealed history.
		{"clamp", "select sum(v) from bench when valid during [400000, 465536) group by window(4096)"},
	}
	for _, cache := range []struct {
		name  string
		bytes int64
	}{{"warm", 32 << 20}, {"nocache", 0}} {
		for _, qc := range queries {
			b.Run(cache.name+"/"+qc.name, func(b *testing.B) {
				q, err := tsql.Parse(qc.sql)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var (
					e     *Entry
					n     int
					total BatchStats // summed over the relations built
				)
				run := func() {
					res, _, _, err := e.SelectCtx(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no windows")
					}
				}
				// rebuild books the last relation's counters and builds the
				// next; its first execution folds every run and memoizes.
				rebuild := func() {
					if e != nil {
						total = addBatchStats(total, e.BatchStats())
					}
					cfg := testConfig(b.TempDir())
					cfg.CacheBytes = cache.bytes
					e, n = sealedSensor(b, New(cfg), "bench", sealed), sealed
					run()
					total = subBatchStats(total, e.BatchStats())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if i%rebuilt == 0 {
						rebuild()
					}
					appendSensor(b, e, n, 256)
					n += 256
					if i%compact == compact-1 {
						e.Compact() // the advisor's cadence: the tail stays under 4096
					}
					b.StartTimer()
					run()
				}
				b.StopTimer()
				st := addBatchStats(total, e.BatchStats())
				ops := float64(b.N)
				b.ReportMetric(float64(st.RunsMerged)/ops, "merged/op")
				// Nothing is closed, so every group merged holds 16 live
				// chunks: the partials merged are the groups and the
				// chunks merged outside one.
				b.ReportMetric(float64(st.RunsMerged-15*st.GroupsMerged)/ops, "partials/op")
				b.ReportMetric(float64(st.RunsFolded)/ops, "folded/op")
				b.ReportMetric(float64(st.Rows)/ops, "rows/op")
				b.ReportMetric(float64(st.ChunksPruned)/ops, "pruned/op")
				b.ReportMetric(float64(st.WindowsRefolded)/ops, "windows/op")
			})
		}
	}
}

// addBatchStats and subBatchStats sum and subtract the counters the
// aggregate benchmarks report.
func addBatchStats(a, b BatchStats) BatchStats {
	a.Rows += b.Rows
	a.RunsMerged += b.RunsMerged
	a.GroupsMerged += b.GroupsMerged
	a.RunsFolded += b.RunsFolded
	a.ChunksPruned += b.ChunksPruned
	a.WindowsRefolded += b.WindowsRefolded
	return a
}

func subBatchStats(a, b BatchStats) BatchStats {
	b.Rows, b.RunsMerged, b.GroupsMerged = -b.Rows, -b.RunsMerged, -b.GroupsMerged
	b.RunsFolded, b.ChunksPruned, b.WindowsRefolded = -b.RunsFolded, -b.ChunksPruned, -b.WindowsRefolded
	return addBatchStats(a, b)
}

// ledgerShaped builds an interval relation of n elements on org and returns
// it with its surrogates. On the general organizations the elements are
// ledger-shaped: starts 50 chronons apart, lengths 50–150, every tenth one
// 400 k chronons long. The vt-ordered log admits only sequential intervals
// — each over before the next is stored — so there element i is the ten
// chronons from its own transaction time (the test clock's tick i+1), and
// every full run is sealed.
func ledgerShaped(t testing.TB, org storage.Kind, n int) (*Entry, []surrogate.Surrogate) {
	t.Helper()
	return ledgerOf(t, org, n, 32<<20, ledgerInsertion)
}

// ledgerOf is ledgerShaped with the cache budget and the stamps of the
// caller's choosing.
func ledgerOf(t testing.TB, org storage.Kind, n int, cacheBytes int64, stamp func(storage.Kind, int) relation.Insertion) (*Entry, []surrogate.Surrogate) {
	t.Helper()
	cfg := testConfig(t.TempDir())
	cfg.CacheBytes = cacheBytes
	c := New(cfg)
	e, err := c.Create(relation.Schema{
		Name: "ledger", ValidTime: element.IntervalStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if org == storage.Heap {
		onTheHeap(t, e)
	}
	ess := make([]surrogate.Surrogate, 0, n)
	for len(ess) < n {
		ins := make([]relation.Insertion, min(256, n-len(ess)))
		for j := range ins {
			ins[j] = stamp(org, len(ess)+j)
		}
		res, err := e.InsertBatch(context.Background(), ins, nil, false)
		if err != nil || res.Stored != len(ins) {
			t.Fatalf("InsertBatch stored %d of %d: %v", res.Stored, len(ins), err)
		}
		for _, it := range res.Items {
			ess = append(ess, it.Elem.ES)
		}
	}
	if org == storage.VTOrdered {
		if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
			t.Fatalf("AdvisePass: %v", err)
		}
	}
	if got := e.Physical().Org; got != org {
		t.Fatalf("set-up left the relation on %v, want %v", got, org)
	}
	return e, ess
}

func ledgerInsertion(org storage.Kind, i int) relation.Insertion {
	lo, length := int64(50*i), int64(50+i*7919%101)
	switch {
	case org == storage.VTOrdered:
		lo, length = int64(10*(i+1)), 10
	case i%10 == 0:
		length = 400_000
	}
	return relation.Insertion{
		VT:      element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+length)),
		Varying: []element.Value{element.Int(int64(i * 7919 % 1000))},
	}
}

// BenchmarkAggregateAfterWrite is the tripwire for chunk partials where
// nothing is appended in order and little is sealed: 20 k interval elements,
// and per iteration one delete somewhere in the history, one insert and the
// ledger's aggregate (a cumulative SUM, 32 768 wide) — all three inside the
// timer. The write empties the result cache; what the aggregate then folds
// is the chunk the delete landed in and the tail, folded/op ≈ 1, whichever
// organization holds the relation. `make bench-smoke` runs it.
func BenchmarkAggregateAfterWrite(b *testing.B) {
	const n = 20_000
	for _, bc := range []struct {
		name string
		org  storage.Kind
	}{
		{"heap", storage.Heap},
		{"ttlog", storage.TTOrdered},
		{"vtlog", storage.VTOrdered},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, live := ledgerShaped(b, bc.org, n)
			ctx := context.Background()
			q, err := tsql.Parse("select sum(v) from ledger group by window(32768, cumulative)")
			if err != nil {
				b.Fatal(err)
			}
			run := func() {
				if res, _, _, err := e.SelectCtx(ctx, q); err != nil || len(res.Rows) == 0 {
					b.Fatalf("aggregate: %d windows, %v", len(res.Rows), err)
				}
			}
			run() // the first execution folds every chunk and memoizes
			before := e.BatchStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i * 7919 % n
				if err := e.DeleteKeyed(ctx, live[j], ""); err != nil {
					b.Fatal(err)
				}
				at := n + i
				if bc.org == storage.VTOrdered {
					at = n + 2*i + 1 // the delete took a tick of the clock too
				}
				el, err := e.InsertKeyed(ctx, ledgerInsertion(bc.org, at), "")
				if err != nil {
					b.Fatal(err)
				}
				live[j] = el.ES
				run()
			}
			b.StopTimer()
			if got := e.Physical().Org; got != bc.org {
				b.Fatalf("the writes moved the relation to %v", got)
			}
			st := e.BatchStats()
			b.ReportMetric(float64(st.RunsMerged-before.RunsMerged)/float64(b.N), "merged/op")
			b.ReportMetric(float64(st.RunsFolded-before.RunsFolded)/float64(b.N), "folded/op")
		})
	}
}

// TestWarmAggregateAllocationBudget pins what a warm aggregate allocates
// below the result cache — every full chunk merged, the tail folded, the
// windows emitted — so the path cannot quietly grow back toward a fold of
// the relation. 20 full chunks; the budget is per execution, not per chunk.
func TestWarmAggregateAllocationBudget(t *testing.T) {
	const warmAggregateAllocs = 60 // reads 46: nothing per chunk or per window
	e, _ := ledgerShaped(t, storage.TTOrdered, 20*256+40)
	ctx := context.Background()
	q, err := tsql.Parse("select sum(v) from ledger group by window(32768, cumulative)")
	if err != nil {
		t.Fatal(err)
	}
	_, fp := q.Fingerprints()
	v := e.view.Load()
	exec := func() vec.ExecStats {
		_, _, st, err := e.executeAggregate(ctx, v, q, fp)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	exec()
	if st := exec(); st.RunsMerged != 20 || st.RunsFolded != 0 {
		t.Fatalf("not warm: %+v", st)
	}
	got := testing.AllocsPerRun(20, func() { exec() })
	t.Logf("%.0f allocations per warm aggregate", got)
	if got > warmAggregateAllocs {
		t.Fatalf("a warm aggregate over 20 chunks allocates %.0f objects, budget %d", got, warmAggregateAllocs)
	}
}

// TestWholeAggregateAllocationBudget: a warm whole-relation aggregate — its
// groups and chunks merged, only the tail folded — allocates the same few
// objects whatever the number of windows it emits: rows are carved from
// slabs, the values finalized into one, and rolling and cumulative rows
// merged into one scratch row. Each of firehose-analytics' four statements
// runs at two widths, ≈ 85 and ≈ 340 windows over 34 chunks.
func TestWholeAggregateAllocationBudget(t *testing.T) {
	const (
		wholeAggregateAllocs = 70 // reads 55–63 at ≈ 85 windows: the cells kept, the rolling lanes
		perWindowSlack       = 12 // reads 7: a few slab and map doublings, none per window
	)
	e := sealedSensor(t, New(cachedConfig(t.TempDir())), "whole", 34*256)
	appendSensor(t, e, 34*256, 100)
	ctx := context.Background()
	for _, stmt := range []string{"count(*) from whole group by window(%v)", "sum(v) from whole group by window(%v)",
		"max(v) from whole group by window(%v, rolling 8)", "count(*) from whole group by window(%v, cumulative)"} {
		var allocs [2]float64
		for i, width := range []int{1024, 256} {
			src := fmt.Sprintf("select "+stmt, width)
			q, err := tsql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			_, fp := q.Fingerprints()
			v := e.view.Load()
			exec := func() vec.ExecStats {
				_, _, st, err := e.executeAggregate(ctx, v, q, fp)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			exec() // learns the chunks
			exec() // builds the groups
			if st := exec(); st.GroupsMerged != 2 || st.RunsMerged != 34 || st.RunsFolded != 0 {
				t.Fatalf("%s: not warm: %+v", src, st)
			}
			allocs[i] = testing.AllocsPerRun(100, func() { exec() })
		}
		stmt = fmt.Sprintf(stmt, "w")
		t.Logf("%s: %.0f allocations at ≈ 85 windows, %.0f at ≈ 340", stmt, allocs[0], allocs[1])
		if allocs[0] > wholeAggregateAllocs || allocs[1]-allocs[0] > perWindowSlack {
			t.Fatalf("%s: %.0f and %.0f allocations; budget %d, and at most %d more for 4× the windows",
				stmt, allocs[0], allocs[1], wholeAggregateAllocs, perWindowSlack)
		}
	}
}

// TestIncrementalAggregateAllocationBudget: an answer rebuilt from kept
// cells after a write that reaches one window — the change log walked, that
// window folded again from the chunks it holds and cuts, the other cells
// copied, every window emitted — allocates no more than a warm whole-relation
// aggregate may (TestWholeAggregateAllocationBudget's budget), whatever the
// number of windows it copies. Each of firehose-analytics' four statements,
// at ≈ 85 and ≈ 340 windows over 34 chunks.
func TestIncrementalAggregateAllocationBudget(t *testing.T) {
	const (
		rebuiltAggregateAllocs = 70 // TestWholeAggregateAllocationBudget's
		perWindowSlack         = 12
	)
	e := sealedSensor(t, New(cachedConfig(t.TempDir())), "whole", 34*256)
	n := 34 * 256
	appendSensor(t, e, n, 100)
	n += 100
	ctx := context.Background()
	for _, stmt := range []string{"count(*) from whole group by window(%v)", "sum(v) from whole group by window(%v)",
		"max(v) from whole group by window(%v, rolling 8)", "count(*) from whole group by window(%v, cumulative)"} {
		var allocs [2]float64
		for i, width := range []int{1024, 256} {
			src := fmt.Sprintf("select "+stmt, width)
			q, err := tsql.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			_, fp := q.Fingerprints()
			if _, _, _, err := e.executeAggregate(ctx, e.view.Load(), q, fp); err != nil { // the whole loop, which keeps the cells
				t.Fatal(err)
			}
			x, err := e.compileAggregate(e.view.Load(), q, fp)
			if err != nil {
				t.Fatal(err)
			}
			kept, at, ok := e.cache.Recorded(e.name, x.cells, e.Epoch())
			if !ok {
				t.Fatalf("%s: no cells kept", src)
			}
			appendSensor(t, e, n, 1)
			n++
			v := e.view.Load()
			x, _ = e.compileAggregate(v, q, fp)
			rebuild := func() vec.ExecStats {
				res, _, st, ok, err := e.refold(ctx, v, x, kept.(*vec.Partial), at)
				if !ok || err != nil {
					t.Fatalf("%s: not rebuilt (%v)", src, err)
				}
				tsql.AggToResult(q, res)
				return st
			}
			if st := rebuild(); st.WindowsRefolded != 1 || st.RunsFolded != 0 {
				t.Fatalf("%s: not one window from warm chunks: %+v", src, st)
			}
			allocs[i] = testing.AllocsPerRun(100, func() { rebuild() })
		}
		stmt = fmt.Sprintf(stmt, "w")
		t.Logf("%s: %.0f allocations at ≈ 85 windows, %.0f at ≈ 340", stmt, allocs[0], allocs[1])
		if allocs[0] > rebuiltAggregateAllocs || allocs[1]-allocs[0] > perWindowSlack {
			t.Fatalf("%s: %.0f and %.0f allocations; budget %d, and at most %d more for 4× the windows",
				stmt, allocs[0], allocs[1], rebuiltAggregateAllocs, perWindowSlack)
		}
	}
}
