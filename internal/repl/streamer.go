// Package repl is the WAL-shipping replication layer: a primary-side
// Streamer that serves the log's sealed segments and a long-polling tail
// of durable frames, and a follower-side Follower that replays shipped
// frames into a read-only catalog.
//
// The design leans on two invariants the lower layers already provide.
// First, the durable bound: the streamer never ships a record past the
// primary's fsync watermark, so a replica can never hold state the
// primary could lose in a crash — follower state is always a prefix of
// acknowledged history. Second, idempotent replay: the follower applies
// frames through the same per-relation-watermark-guarded path boot
// recovery uses, so re-shipping after a reconnect, restart, or partial
// batch is harmless. Between them, the protocol needs no acknowledgments
// and no session state on the primary: a follower is just a reader that
// remembers how far it got.
package repl

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/integrity"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrTruncated re-exports the log's truncation error: the follower asked
// for an LSN below the oldest retained segment and must be reseeded.
var ErrTruncated = wal.ErrTruncated

// tailPollInterval is how often a waiting Tail re-checks the durable
// watermark. Durability waits are already batched by the group-commit
// syncer, so a short poll costs one atomic load per tick.
const tailPollInterval = 5 * time.Millisecond

// Streamer is the primary-side replication feed over a live WAL.
type Streamer struct {
	log *wal.Log

	tailRequests  atomic.Uint64
	framesShipped atomic.Uint64
}

// NewStreamer serves the given log. The log must outlive the streamer.
func NewStreamer(log *wal.Log) *Streamer { return &Streamer{log: log} }

// Segments enumerates the primary's retained WAL segments with the LSN
// bounds a follower needs to plan a catch-up.
func (s *Streamer) Segments() wire.ReplSegmentsResponse {
	segs := s.log.Segments()
	out := wire.ReplSegmentsResponse{
		Segments:   make([]wire.ReplSegment, len(segs)),
		OldestLSN:  s.log.OldestLSN(),
		DurableLSN: s.log.DurableLSN(),
	}
	for i, seg := range segs {
		out.Segments[i] = wire.ReplSegment{
			Name: seg.Name, Base: seg.Base, Last: seg.Last, Sealed: seg.Sealed,
		}
	}
	return out
}

// Tail reads up to max durable records starting at LSN from. When the
// log holds nothing new it long-polls: the call blocks until a record
// becomes durable, the wait elapses, or ctx is done — so a caught-up
// follower ships new mutations within one poll tick of their fsync
// instead of hammering an empty feed. Returns ErrTruncated (wrapped)
// when from precedes the oldest retained segment.
func (s *Streamer) Tail(ctx context.Context, from uint64, max int, wait time.Duration) (wire.ReplTailResponse, error) {
	s.tailRequests.Add(1)
	deadline := time.Now().Add(wait)
	for {
		recs, durable, err := s.log.IterateFrom(from, max)
		if err != nil {
			return wire.ReplTailResponse{}, err
		}
		if len(recs) > 0 || wait <= 0 || time.Now().After(deadline) || ctx.Err() != nil {
			resp := wire.ReplTailResponse{
				DurableLSN: durable,
				OldestLSN:  s.log.OldestLSN(),
			}
			if len(recs) > 0 {
				resp.Frames = make([]wire.ReplFrame, len(recs))
				for i, rec := range recs {
					// Each frame ships with its integrity leaf hash, computed
					// from the frame as read back from the log, so the follower
					// can refuse a frame corrupted in flight or on this disk.
					leaf := integrity.FrameLeaf(rec.LSN, rec.Kind, rec.Rel, rec.Payload)
					resp.Frames[i] = wire.ReplFrame{
						LSN: rec.LSN, Kind: uint8(rec.Kind), Rel: rec.Rel, Payload: rec.Payload,
						Leaf: leaf[:],
					}
				}
				s.framesShipped.Add(uint64(len(recs)))
			}
			return resp, nil
		}
		select {
		case <-ctx.Done():
			// Loop once more; the ctx.Err() check above returns the empty
			// batch (a clean response, not an error — the poll just ended).
		case <-time.After(tailPollInterval):
		}
	}
}

// StreamerStats is the primary's replication gauge set.
type StreamerStats struct {
	TailRequests  uint64
	FramesShipped uint64
}

// Stats snapshots the streamer's lifetime counters.
func (s *Streamer) Stats() StreamerStats {
	return StreamerStats{
		TailRequests:  s.tailRequests.Load(),
		FramesShipped: s.framesShipped.Load(),
	}
}

// IsTruncated reports whether err means the requested LSN is below the
// primary's retention horizon (reseed required).
func IsTruncated(err error) bool { return errors.Is(err, wal.ErrTruncated) }
