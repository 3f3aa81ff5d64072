package catalog

// Microbenchmarks for the ingest path: single acked inserts against
// batched frames at 32 and 256 elements, all on a group-commit WAL.
// `make bench-smoke` runs these as a regression tripwire; the sustained
// throughput claim lives in cmd/benchrunner -exp S9. The reported
// elems/s metric is what S9's table normalizes to.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/wal"
)

func benchWALEntry(b *testing.B) *Entry {
	b.Helper()
	dir := b.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroup})
	if err != nil {
		b.Fatalf("wal.Open: %v", err)
	}
	b.Cleanup(func() { w.Close() })
	c := New(Config{
		Dir:      filepath.Join(dir, "data"),
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
	})
	if err := c.Open(); err != nil {
		b.Fatalf("catalog.Open: %v", err)
	}
	e, err := c.Create(relation.Schema{
		Name: "bench", ValidTime: element.EventStamp, Granularity: 1,
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	return e
}

func benchInsertBatch(b *testing.B, batch int) {
	e := benchWALEntry(b)
	ctx := context.Background()
	ins := make([]relation.Insertion, batch)
	vt := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ins {
			vt++
			ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}
		}
		res, err := e.InsertBatch(ctx, ins, nil, false)
		if err != nil {
			b.Fatalf("InsertBatch: %v", err)
		}
		if res.Stored != batch {
			b.Fatalf("stored %d, want %d", res.Stored, batch)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "elems/s")
}

// BenchmarkInsertBatchSingle is the baseline the batches amortize: one
// acked WAL frame, one epoch publish, one Merkle leaf per element.
func BenchmarkInsertBatchSingle(b *testing.B) {
	e := benchWALEntry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "elems/s")
}

func BenchmarkInsertBatch32(b *testing.B)  { benchInsertBatch(b, 32) }
func BenchmarkInsertBatch256(b *testing.B) { benchInsertBatch(b, 256) }

// BenchmarkInsertBatchKeyed is a keyed 256-element batch both ways a batch
// is keyed: a key per element (the compatibility path — 256 probes, 256
// window entries, 34 bytes of frame an element) and one key for the batch
// (one probe, one entry). Every key is fresh: one comes back only after
// the window has forgotten it.
func BenchmarkInsertBatchKeyed(b *testing.B) {
	const batch = 256
	for _, perElement := range []bool{true, false} {
		name := "one-key"
		if perElement {
			name = "per-element"
		}
		b.Run(name, func(b *testing.B) {
			e := benchWALEntry(b)
			ctx := context.Background()
			ring := make([]string, 1024*batch) // 4 generations of per-element keys; 1024 batches
			for i := range ring {
				ring[i] = fmt.Sprintf("%032x", i)
			}
			ins := make([]relation.Insertion, batch)
			vt := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ins {
					vt++
					ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}
				}
				var res BatchResult
				var err error
				if perElement {
					at := i % (len(ring) / batch) * batch
					res, err = e.InsertBatch(ctx, ins, ring[at:at+batch], false)
				} else {
					res, err = e.InsertBatchKeyed(ctx, ins, ring[i%1024], uint32(i), false)
				}
				if err != nil || res.Stored != batch {
					b.Fatalf("stored %d of %d: %v", res.Stored, batch, err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkDedupWindow is what the idempotency window costs a keyed
// element: the lookup commit makes before staging, which misses, and the
// remember apply makes after, on a window that is full and churning —
// every key new, a generation retired every dedupWindowCap keys. ns/op is
// per key; allocs/op must read 0.
func BenchmarkDedupWindow(b *testing.B) {
	keys := make([]string, 4*dedupWindowCap)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i)
	}
	var w dedupWindow
	for i := 0; i < 2*dedupWindowCap; i++ {
		w.remember(keys[i], dedupInsert, surrogate.None, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A key comes back 4·dedupWindowCap keys after it was remembered,
		// long after its generation was retired.
		k := keys[(i+2*dedupWindowCap)%len(keys)]
		if _, ok := w.lookup(k); ok {
			b.Fatalf("key %s remembered after %d newer ones", k, 2*dedupWindowCap)
		}
		w.remember(k, dedupInsert, surrogate.None, uint64(i))
	}
}

// BenchmarkDedupWindowBatch is what the window costs a batch under one
// key: the lookup commit makes, which misses, and the remember apply makes
// of its 256 stored elements, on a window that is full and churning — a
// generation retired every dedupWindowElems elements. ns/op is per batch;
// allocs/op must read 0.
func BenchmarkDedupWindowBatch(b *testing.B) {
	const batch = 256
	keys := make([]string, 4*dedupWindowElems/batch)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i)
	}
	m := mutation{oneKey: oneKey{n: batch}, recs: make([]relation.LogRecord, batch)}
	for j := range m.recs {
		m.recs[j].Elem = &element.Element{ES: surrogate.Surrogate(j + 1)}
	}
	var w dedupWindow
	for i := 0; i < len(keys)/2; i++ {
		m.key = keys[i]
		w.rememberBatch(&m, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A key comes back 4·dedupWindowElems elements after it was
		// remembered, long after its generation was retired.
		m.key = keys[(i+len(keys)/2)%len(keys)]
		if _, ok := w.lookup(m.key); ok {
			b.Fatalf("batch %s remembered after %d newer ones", m.key, len(keys)/2)
		}
		w.rememberBatch(&m, uint64(i))
	}
}
