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

// bootOverWAL opens the log in walDir and a catalog over it and over the
// snapshots in dataDir ("" for none): Open loads the snapshots and replays
// whatever the log holds.
func bootOverWAL(b *testing.B, walDir, dataDir string, signer *integrity.Signer) (*Catalog, *wal.Log) {
	w, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncInterval})
	if err != nil {
		b.Fatalf("wal.Open: %v", err)
	}
	c := New(Config{Dir: dataDir, NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w, Signer: signer})
	if err := c.Open(); err != nil {
		b.Fatalf("catalog.Open: %v", err)
	}
	return c, w
}

func BenchmarkReplayCloses(b *testing.B) {
	const inserts, deletes = 20000, 10000
	walDir := filepath.Join(b.TempDir(), "wal")
	open := func() (*Catalog, *wal.Log) { return bootOverWAL(b, walDir, "", nil) }
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
// bench-smoke` runs it beside BenchmarkReplayCloses. Its batches carry a key
// per element (kind-10 frames, the compatibility path);
// BenchmarkRecoverIngestLogOneKey is the same log as the typed client
// writes it, one key per batch (kind 11).
func BenchmarkRecoverIngestLog(b *testing.B) { recoverIngestLog(b, false, false) }

// BenchmarkRecoverIngestLogOneKey is BenchmarkRecoverIngestLog over
// one-key batch frames: the window keeps one entry per batch.
func BenchmarkRecoverIngestLogOneKey(b *testing.B) { recoverIngestLog(b, true, false) }

// BenchmarkRecoverCoveredLog is BenchmarkRecoverIngestLogOneKey booted over
// a snapshot taken after the last frame: the log's one segment outlives
// the snapshot (truncation drops whole segments only), so boot loads the
// snapshot and then reads a log whose every frame it covers and skips.
// versions/s counts the snapshot's versions.
func BenchmarkRecoverCoveredLog(b *testing.B) { recoverIngestLog(b, true, true) }

func recoverIngestLog(b *testing.B, oneKey, covered bool) {
	const batches, batch, singles = 800, 256, 8
	const versions = batches * (batch + singles)
	dir := b.TempDir()
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(dir, "integrity.ed25519"))
	if err != nil {
		b.Fatalf("LoadOrCreateSigner: %v", err)
	}
	dataDir := ""
	if covered {
		dataDir = filepath.Join(dir, "data")
	}
	open := func() (*Catalog, *wal.Log) { return bootOverWAL(b, filepath.Join(dir, "wal"), dataDir, signer) }
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
		var res BatchResult
		if oneKey {
			res, err = e.InsertBatchKeyed(ctx, ins, fmt.Sprintf("batch-%d", i), uint32(i), false)
		} else {
			res, err = e.InsertBatch(ctx, ins, keys, false)
		}
		if err != nil || res.Stored != batch {
			b.Fatalf("InsertBatch: %v, %+v", err, res)
		}
		for j := 0; j < singles; j++ {
			one, key := next()
			if _, err := e.InsertKeyed(ctx, one, key); err != nil {
				b.Fatalf("InsertKeyed: %v", err)
			}
		}
	}
	if covered {
		if _, err := c.Snapshot(); err != nil {
			b.Fatalf("Snapshot: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatalf("wal.Close: %v", err)
	}
	if covered {
		w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
		if err != nil {
			b.Fatalf("wal.Open: %v", err)
		}
		if n := len(w.TakeRecovered()); n < batches {
			b.Fatalf("the log kept %d frames under the snapshot", n)
		}
		w.Close()
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

// BenchmarkApplyReplicatedFrames times a tailing follower's apply: a
// primary's log of 4,096 keyed single inserts shipped n frames per
// ApplyReplicated call, as a follower that keeps up receives them. ns/frame
// is what a frame costs, the call's own overhead shared among its frames.
func BenchmarkApplyReplicatedFrames(b *testing.B) {
	const frames = 4096
	walDir := filepath.Join(b.TempDir(), "wal")
	c, w := bootOverWAL(b, walDir, "", nil)
	e, err := c.Create(relation.Schema{
		Name: "sensor", ValidTime: element.EventStamp, Granularity: 1,
		Varying: []relation.Column{{Name: "value", Type: element.KindInt}},
	})
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	ctx := context.Background()
	for i := 1; i < frames; i++ {
		ins := relation.Insertion{VT: element.EventAt(chronon.Chronon(10 * i)), Varying: []element.Value{element.Int(int64(i))}}
		if _, err := e.InsertKeyed(ctx, ins, fmt.Sprintf("k-%d", i)); err != nil {
			b.Fatalf("InsertKeyed: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatalf("wal.Close: %v", err)
	}
	if w, err = wal.Open(wal.Options{Dir: walDir}); err != nil {
		b.Fatalf("wal.Open: %v", err)
	}
	recs := w.TakeRecovered()
	w.Close()
	if len(recs) != frames {
		b.Fatalf("log holds %d frames, want %d", len(recs), frames)
	}
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := New(Config{Follower: true, NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }})
				b.StartTimer()
				for j := 0; j < len(recs); j += n {
					if err := f.ApplyReplicated(recs[j:min(j+n, len(recs))]); err != nil {
						b.Fatalf("ApplyReplicated: %v", err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}
