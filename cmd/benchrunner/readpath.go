package main

// S4 — the read path at scale: epoch-stamped snapshot reads under a
// steady writer, and the plan-keyed result cache's hit latency vs
// executing every query. Both phases run at the
// catalog level (in-process, WAL off) so the numbers isolate the read
// path itself from HTTP and durability costs. Results are printed and
// written to BENCH_readpath.json.
//
// Phase 1 (throughput): an undeclared relation — heap store, so every
// time-slice scans — preloaded with n elements, a steady paced writer,
// and 1/2/4/8 readers cycling over a small hot set of time-slices (the
// dashboard shape: the same few queries re-asked continuously while
// writes trickle in). Pacing the writer keeps data growth identical
// across modes. Two read paths are measured: bare snapshot reads (scans
// against the pinned view, no lock) and the full read path with the
// result cache (hot queries are answered from the (relation,
// fingerprint, epoch) entry until the writer's next epoch bump). On a
// multi-core host the snapshot column additionally scales with readers,
// since scans parallelize; on a single-CPU host scans are compute-bound
// and the throughput win comes from the cache doing less work per query.
// The pre-epoch shared-lock baseline was retired after it measured
// parity with bare snapshots (EXPERIMENTS S4 keeps its last numbers).
//
// Phase 2 (cache): a larger relation, no writer, one query repeated.
// With the cache off every repetition re-executes the scan; with it on,
// the first execution fills the cache and the rest are lookups.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
)

// readpathRow is one reader-count measurement of phase 1.
type readpathRow struct {
	Readers       int     `json:"readers"`
	SnapshotQPS   float64 `json:"snapshot_qps"`
	SnapCacheQPS  float64 `json:"snapshot_cache_qps"`
	CacheSpeedup  float64 `json:"cached_over_snapshot"`
	SnapshotWrite float64 `json:"snapshot_writes_per_sec"`
}

// cacheResult is phase 2 of BENCH_readpath.json.
type cacheResult struct {
	Elements  int     `json:"elements"`
	MissUS    float64 `json:"miss_us"`
	HitUS     float64 `json:"hit_us"`
	Speedup   float64 `json:"hit_speedup"`
	Hits      uint64  `json:"cache_hits"`
	Misses    uint64  `json:"cache_misses"`
	BytesUsed int64   `json:"cache_bytes"`
}

// readpathResult is the BENCH_readpath.json document.
type readpathResult struct {
	Experiment string        `json:"experiment"`
	Elements   int           `json:"elements"`
	MeasureMS  int64         `json:"measure_ms"`
	Throughput []readpathRow `json:"throughput"`
	SpeedupAt8 float64       `json:"readpath_speedup_at_8_readers"` // full read path (snapshot+cache) over bare snapshot reads
	Cache      cacheResult   `json:"cache"`
}

// buildRelation makes a catalog under cfg and preloads one undeclared
// event relation (heap store: time-slices scan the extension).
func buildRelation(cfg catalog.Config, name string, elements int) (*catalog.Catalog, *catalog.Entry, func(), error) {
	dir, err := os.MkdirTemp("", "tsdbd-readpath-")
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	cfg.Dir = dir
	cat := catalog.New(cfg)
	e, err := cat.Create(relation.Schema{
		Name: name, ValidTime: element.EventStamp, Granularity: chronon.Second,
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	for vt := 0; vt < elements; vt++ {
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}, ""); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
	}
	return cat, e, cleanup, nil
}

// hammer runs `readers` query goroutines plus one steady writer against
// the entry for the measurement window and reports both rates.
func hammer(e *catalog.Entry, elements, readers int, window time.Duration) (qps, wps float64, err error) {
	ctx := context.Background()
	var stop atomic.Bool
	var queries, writes atomic.Int64
	var firstErr atomic.Value
	fail := func(err error) {
		stop.Store(true)
		firstErr.CompareAndSwap(nil, err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the steady writer, paced so growth is equal across modes
		defer wg.Done()
		vt := int64(elements)
		for !stop.Load() {
			if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}, ""); err != nil {
				fail(fmt.Errorf("writer: %w", err))
				return
			}
			vt++
			writes.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	const hotSet = 16 // distinct time-slices the readers cycle over
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for !stop.Load() {
				vt := chronon.Chronon((i * 7919) % hotSet * (elements / hotSet))
				res, err := e.TimesliceCtx(ctx, vt)
				if err != nil {
					fail(fmt.Errorf("reader: %w", err))
					return
				}
				if len(res.Elements) == 0 {
					fail(fmt.Errorf("timeslice at %d found nothing", vt))
					return
				}
				i++
				queries.Add(1)
			}
		}(r)
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, 0, err
	}
	secs := window.Seconds()
	return float64(queries.Load()) / secs, float64(writes.Load()) / secs, nil
}

// runS4 measures both phases and writes BENCH_readpath.json.
func runS4(n int) error {
	elements := n
	if elements > 20000 {
		elements = 20000
	}
	const window = 300 * time.Millisecond

	modes := []struct {
		name string
		cfg  catalog.Config
	}{
		{"snapshot", catalog.Config{}},
		{"snapshot+cache", catalog.Config{CacheBytes: 64 << 20}},
	}

	fmt.Printf("phase 1: %d-element relation, steady writer, %v per cell\n", elements, window)
	fmt.Printf("%-8s %14s %16s %15s\n", "readers", "snapshot q/s", "snap+cache q/s", "cached/snapshot")
	var rows []readpathRow
	for _, readers := range []int{1, 2, 4, 8} {
		row := readpathRow{Readers: readers}
		for _, m := range modes {
			_, e, cleanup, err := buildRelation(m.cfg, "events", elements)
			if err != nil {
				return err
			}
			qps, wps, err := hammer(e, elements, readers, window)
			cleanup()
			if err != nil {
				return fmt.Errorf("%s/%d readers: %w", m.name, readers, err)
			}
			switch m.name {
			case "snapshot":
				row.SnapshotQPS, row.SnapshotWrite = qps, wps
			case "snapshot+cache":
				row.SnapCacheQPS = qps
			}
		}
		row.CacheSpeedup = row.SnapCacheQPS / row.SnapshotQPS
		rows = append(rows, row)
		fmt.Printf("%-8d %14.0f %16.0f %10.1fx\n",
			readers, row.SnapshotQPS, row.SnapCacheQPS, row.CacheSpeedup)
	}

	// Phase 2: repeated time-slice against an idle relation, cache off vs on.
	cacheElems := 2 * elements
	const reps = 400
	ctx := context.Background()
	fixed := chronon.Chronon(cacheElems / 2)

	measure := func(cfg catalog.Config) (meanUS float64, cat *catalog.Catalog, cleanup func(), err error) {
		cat, e, cleanup, err := buildRelation(cfg, "archive", cacheElems)
		if err != nil {
			return 0, nil, nil, err
		}
		if _, err := e.TimesliceCtx(ctx, fixed); err != nil { // warm: fills the cache when one is on
			cleanup()
			return 0, nil, nil, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			res, err := e.TimesliceCtx(ctx, fixed)
			if err != nil {
				cleanup()
				return 0, nil, nil, err
			}
			if len(res.Elements) == 0 {
				cleanup()
				return 0, nil, nil, fmt.Errorf("cache-phase timeslice found nothing")
			}
		}
		return float64(time.Since(start).Microseconds()) / reps, cat, cleanup, nil
	}

	missUS, _, cleanOff, err := measure(catalog.Config{})
	if err != nil {
		return err
	}
	cleanOff()
	hitCfg := catalog.Config{CacheBytes: 64 << 20}
	hitUS, catOn, cleanOn, err := measure(hitCfg)
	if err != nil {
		return err
	}
	stats := catOn.Cache().Stats()
	cleanOn()
	if stats.Hits < reps {
		return fmt.Errorf("cache counted %d hits, want >= %d", stats.Hits, reps)
	}

	cache := cacheResult{
		Elements:  cacheElems,
		MissUS:    missUS,
		HitUS:     hitUS,
		Speedup:   missUS / hitUS,
		Hits:      stats.Hits,
		Misses:    stats.Misses,
		BytesUsed: stats.Bytes,
	}
	fmt.Printf("\nphase 2: %d-element relation, %d repeated time-slices\n", cacheElems, reps)
	fmt.Printf("%-26s %10.1f µs/query\n", "cache off (re-executed)", cache.MissUS)
	fmt.Printf("%-26s %10.1f µs/query\n", "cache on (served hits)", cache.HitUS)
	fmt.Printf("hit speedup %.1fx  (%d hits, %d misses, %d bytes resident)\n",
		cache.Speedup, cache.Hits, cache.Misses, cache.BytesUsed)

	res := readpathResult{
		Experiment: "S4",
		Elements:   elements,
		MeasureMS:  window.Milliseconds(),
		Throughput: rows,
		SpeedupAt8: rows[len(rows)-1].CacheSpeedup,
		Cache:      cache,
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_readpath.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_readpath.json")
	return nil
}
