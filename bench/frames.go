package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/integrity"
	"repro/internal/wal"
)

// frameCosts is what the write-ahead log and the Merkle accounting cost
// for the frames of one measured phase, re-timed outside the catalog.
type frameCosts struct {
	frames      int
	write, wait time.Duration // Log.Write, Log.WaitDurable
	leaf, root  time.Duration // LeafHash+Append, Root+Sign
	devWrite    time.Duration // inside write: the device's share
}

// readFrames returns the records a closed server left in walDir.
func readFrames(walDir string) ([]wal.Record, error) {
	l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		return nil, fmt.Errorf("reading back the traced run's log: %w", err)
	}
	recs := l.TakeRecovered()
	return recs, l.Close()
}

// replayFrames writes the records again through a fresh log under scratch
// and a fresh tree, exactly as the catalog drives them per mutation: Write,
// leaf, WaitDurable, signed root. Records up to afterLSN (set-up and
// warm-up) are written untimed so the log and the tree have the size they
// had; the rest are timed call by call.
func replayFrames(recs []wal.Record, afterLSN uint64, scratch string) (frameCosts, error) {
	var fc frameCosts
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fc, err
	}
	dev := &deviceFS{FS: wal.DirFS(scratch)}
	l, err := wal.Open(wal.Options{FS: dev, Sync: wal.SyncGroup, SegmentBytes: 64 << 20})
	if err != nil {
		return fc, err
	}
	defer l.Close()
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(scratch, "integrity.ed25519"))
	if err != nil {
		return fc, err
	}
	tree := integrity.NewTree()
	var before deviceSnapshot
	for _, rec := range recs {
		timed := rec.LSN > afterLSN
		if timed && fc.frames == 0 {
			before = dev.snapshot()
		}
		t0 := time.Now()
		lsn, err := l.Write(rec.Kind, rec.Rel, rec.Payload)
		t1 := time.Now()
		if err != nil {
			return fc, err
		}
		tree.Append(integrity.LeafHash(wal.FrameBody(lsn, rec.Kind, rec.Rel, rec.Payload)))
		t2 := time.Now()
		if err := l.WaitDurable(lsn); err != nil {
			return fc, err
		}
		t3 := time.Now()
		signer.Sign(rec.Rel, tree.Size(), tree.Root())
		t4 := time.Now()
		if timed {
			fc.frames++
			fc.write += t1.Sub(t0)
			fc.leaf += t2.Sub(t1)
			fc.wait += t3.Sub(t2)
			fc.root += t4.Sub(t3)
		}
	}
	fc.devWrite = time.Duration(dev.snapshot().WriteNanos - before.WriteNanos)
	return fc, nil
}
