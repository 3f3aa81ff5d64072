package catalog

// BenchmarkReplayCloses times boot recovery (Catalog.Open over a recovered
// WAL) on a log where a third of the frames are closes. Replay applies each
// close to the physical store as it goes, so the cost of one close must not
// grow with the relation: a linear store swap here turned recovery
// quadratic once. `make bench-smoke` runs it as a tripwire; versions/s is
// the number to compare across commits.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

func BenchmarkReplayCloses(b *testing.B) {
	const inserts, deletes = 20000, 10000
	walDir := filepath.Join(b.TempDir(), "wal")
	open := func() (*Catalog, *wal.Log) {
		w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncInterval})
		if err != nil {
			b.Fatalf("wal.Open: %v", err)
		}
		c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
		if err := c.Open(); err != nil {
			b.Fatalf("catalog.Open: %v", err)
		}
		return c, w
	}
	c, w := open()
	e, err := c.Create(relation.Schema{Name: "bench", ValidTime: element.EventStamp, Granularity: 1})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < inserts; i++ {
		el, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, "")
		if err != nil {
			b.Fatalf("InsertKeyed: %v", err)
		}
		// Close every other element right after it was stored: the closed
		// version sits at the store's tail, the far end of a front-to-back
		// scan.
		if i%2 == 0 && i/2 < deletes {
			if err := e.DeleteKeyed(ctx, el.ES, ""); err != nil {
				b.Fatalf("DeleteKeyed: %v", err)
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatalf("wal.Close: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, w := open()
		b.StopTimer()
		got, err := c.Get("bench")
		if err != nil || got.Info().Versions != inserts {
			b.Fatalf("replayed relation: %v, %+v", err, got)
		}
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*inserts)/b.Elapsed().Seconds(), "versions/s")
}
