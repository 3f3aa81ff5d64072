package catalog

// BenchmarkReplayCloses times boot recovery (Catalog.Open over a recovered
// WAL) on a log where a third of the frames are closes. Replay applies each
// close to the physical store as it goes, so the cost of one close must not
// grow with the relation: a linear store swap here turned recovery
// quadratic once. `make bench-smoke` runs it as a tripwire; versions/s is
// the number to compare across commits.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/wal"
)

// bootOverWAL opens the log in walDir and a snapshot-less catalog over it:
// Open replays whatever the log holds.
func bootOverWAL(b *testing.B, walDir string, signer *integrity.Signer) (*Catalog, *wal.Log) {
	w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncInterval})
	if err != nil {
		b.Fatalf("wal.Open: %v", err)
	}
	c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w, Signer: signer})
	if err := c.Open(); err != nil {
		b.Fatalf("catalog.Open: %v", err)
	}
	return c, w
}

func BenchmarkReplayCloses(b *testing.B) {
	const inserts, deletes = 20000, 10000
	walDir := filepath.Join(b.TempDir(), "wal")
	open := func() (*Catalog, *wal.Log) { return bootOverWAL(b, walDir, nil) }
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

// BenchmarkRecoverIngestLog times boot recovery on the log an ingesting
// sensor leaves: a declared non-decreasing event relation, 800 keyed
// 256-element batch frames with eight keyed single inserts after each,
// Merkle leaves and signer on — 211 k versions, none closed. Every frame
// crosses decode, the relation's apply, the tracker, the store and the
// dedup window, so versions/s is what a version costs to bring back; `make
// bench-smoke` runs it beside BenchmarkReplayCloses.
func BenchmarkRecoverIngestLog(b *testing.B) {
	const batches, batch, singles = 800, 256, 8
	const versions = batches * (batch + singles)
	dir := b.TempDir()
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(dir, "integrity.ed25519"))
	if err != nil {
		b.Fatalf("LoadOrCreateSigner: %v", err)
	}
	open := func() (*Catalog, *wal.Log) { return bootOverWAL(b, filepath.Join(dir, "wal"), signer) }
	c, w := open()
	e, err := c.Create(relation.Schema{
		Name: "sensor", ValidTime: element.EventStamp, Granularity: 1,
		Invariant: []relation.Column{{Name: "id", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "value", Type: element.KindInt}},
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	desc, _ := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
	if err := e.Declare([]constraint.Descriptor{desc}); err != nil {
		b.Fatalf("Declare: %v", err)
	}
	ctx := context.Background()
	n := 0
	next := func() (relation.Insertion, string) {
		n++
		return relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(10 * n)),
			Invariant: []element.Value{element.String_("s1")},
			Varying:   []element.Value{element.Int(int64(n % 1000))},
		}, fmt.Sprintf("k-%d", n)
	}
	ins, keys := make([]relation.Insertion, batch), make([]string, batch)
	for i := 0; i < batches; i++ {
		for j := range ins {
			ins[j], keys[j] = next()
		}
		if res, err := e.InsertBatch(ctx, ins, keys, false); err != nil || res.Stored != batch {
			b.Fatalf("InsertBatch: %v, %+v", err, res)
		}
		for j := 0; j < singles; j++ {
			one, key := next()
			if _, err := e.InsertKeyed(ctx, one, key); err != nil {
				b.Fatalf("InsertKeyed: %v", err)
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
		got, err := c.Get("sensor")
		if err != nil || got.Info().Versions != versions {
			b.Fatalf("recovered relation: %v, %+v", err, got)
		}
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*versions)/b.Elapsed().Seconds(), "versions/s")
}
