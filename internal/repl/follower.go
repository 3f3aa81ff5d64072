package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/wal"
	"repro/internal/wire"
)

// FollowerConfig parameterizes a follower's tail loop.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080").
	Primary string
	// Catalog is the local read-only catalog frames are applied to. It
	// must have been built with catalog.Config.Follower set.
	Catalog *catalog.Catalog
	// HTTP is the transport; nil uses a client with sane timeouts.
	HTTP *http.Client
	// BatchMax bounds frames per tail poll; 0 means 512.
	BatchMax int
	// Wait is the long-poll window per tail request; 0 means 2s.
	Wait time.Duration
	// MaxBackoff caps the reconnect backoff; 0 means 5s.
	MaxBackoff time.Duration
}

// Follower tails a primary's replication feed and replays the shipped
// frames into the local catalog. One goroutine runs the loop (Run); the
// stats methods are safe from any goroutine, which is how the server
// stamps staleness headers and the /metrics replication section.
type Follower struct {
	cfg FollowerConfig

	appliedLSN     atomic.Uint64
	primaryDurable atomic.Uint64
	framesApplied  atomic.Uint64
	reconnects     atomic.Uint64
	leafFailures   atomic.Uint64
	synced         atomic.Bool

	mu        sync.Mutex
	freshAsOf time.Time // local receipt time of the last caught-up poll
	lastErr   string
}

// NewFollower builds a follower over cfg. Call Run to start tailing.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Catalog == nil || !cfg.Catalog.Follower() {
		panic("repl: follower requires a catalog built with Config.Follower")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 512
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	f := &Follower{cfg: cfg}
	f.appliedLSN.Store(cfg.Catalog.MaxAppliedLSN())
	return f
}

// Run tails the primary until ctx is done (returns nil) or a fatal
// condition stops replication: the primary truncated the follower's
// resume point away (ErrTruncated — reseed from a snapshot) or a frame
// failed to apply (divergence; never expected from a healthy primary).
// Transport errors are not fatal: the loop backs off exponentially with
// jitter and reconnects, so a primary restart just shows up as a few
// reconnects and a staleness spike.
//
// The resume point comes from the catalog, not from memory: the minimum
// persisted per-relation watermark. Everything from there forward is
// re-requested, and relations already ahead skip the duplicates (replay
// is idempotent), so crash-restart needs no replication-specific state.
func (f *Follower) Run(ctx context.Context) error {
	from := f.cfg.Catalog.ResumeLSN() + 1
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		resp, err := f.poll(ctx, from)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if IsTruncated(err) {
				f.setErr(err)
				return fmt.Errorf("repl: cannot catch up: %w (reseed the follower from a primary snapshot)", err)
			}
			f.reconnects.Add(1)
			f.setErr(err)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)))):
			}
			if backoff *= 2; backoff > f.cfg.MaxBackoff {
				backoff = f.cfg.MaxBackoff
			}
			continue
		}
		backoff = 50 * time.Millisecond
		if len(resp.Frames) > 0 {
			// Verify each frame's shipped leaf hash against the frame body
			// before applying anything: a mismatch means the frame was
			// corrupted in flight or on the primary's disk, so the whole
			// batch is dropped and re-fetched — never applied. This is the
			// follower half of the repair loop: the re-fetch gets a clean
			// copy once the primary's scrubber has repaired its log.
			if bad := verifyFrameLeaves(resp.Frames); bad >= 0 {
				fr := resp.Frames[bad]
				f.leafFailures.Add(1)
				f.setErr(fmt.Errorf("repl: frame lsn %d (%s) failed leaf verification; batch dropped for re-fetch", fr.LSN, fr.Rel))
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)))):
				}
				continue
			}
			recs := make([]wal.Record, len(resp.Frames))
			for i, fr := range resp.Frames {
				recs[i] = wal.Record{LSN: fr.LSN, Kind: wal.Kind(fr.Kind), Rel: fr.Rel, Payload: fr.Payload}
			}
			if err := f.cfg.Catalog.ApplyReplicated(recs); err != nil {
				f.setErr(err)
				return fmt.Errorf("repl: applying shipped frames: %w", err)
			}
			last := recs[len(recs)-1].LSN
			f.framesApplied.Add(uint64(len(recs)))
			f.appliedLSN.Store(last)
			from = last + 1
		}
		f.primaryDurable.Store(resp.DurableLSN)
		if from > resp.DurableLSN {
			// Caught up: everything durable on the primary at the moment it
			// answered is applied here. This receipt time is the follower's
			// freshness anchor — staleness is measured from it.
			f.mu.Lock()
			f.freshAsOf = time.Now()
			f.lastErr = ""
			f.mu.Unlock()
			f.synced.Store(true)
		}
	}
	return nil
}

// verifyFrameLeaves recomputes each shipped frame's integrity leaf and
// returns the index of the first mismatch, or -1 when the batch is
// clean. Frames without a leaf (a primary running with integrity
// disabled) are not checked.
func verifyFrameLeaves(frames []wire.ReplFrame) int {
	for i, fr := range frames {
		if len(fr.Leaf) == 0 {
			continue
		}
		got := integrity.FrameLeaf(fr.LSN, wal.Kind(fr.Kind), fr.Rel, fr.Payload)
		if !bytes.Equal(fr.Leaf, got[:]) {
			return i
		}
	}
	return -1
}

// poll issues one tail request and decodes the batch.
func (f *Follower) poll(ctx context.Context, from uint64) (wire.ReplTailResponse, error) {
	q := url.Values{}
	q.Set("from_lsn", strconv.FormatUint(from, 10))
	q.Set("max", strconv.Itoa(f.cfg.BatchMax))
	q.Set("wait_ms", strconv.FormatInt(f.cfg.Wait.Milliseconds(), 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.cfg.Primary+"/v1/repl/tail?"+q.Encode(), nil)
	if err != nil {
		return wire.ReplTailResponse{}, err
	}
	res, err := f.cfg.HTTP.Do(req)
	if err != nil {
		return wire.ReplTailResponse{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(res.Body, 1<<16))
		_ = res.Body.Close()
	}()
	if res.StatusCode != http.StatusOK {
		var eb wire.ErrorBody
		_ = json.NewDecoder(res.Body).Decode(&eb)
		if eb.Error.Code == wire.CodeTruncated {
			return wire.ReplTailResponse{}, fmt.Errorf("%w: %s", wal.ErrTruncated, eb.Error.Message)
		}
		return wire.ReplTailResponse{}, fmt.Errorf("repl: tail: primary answered %d (%s: %s)",
			res.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	var out wire.ReplTailResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		return wire.ReplTailResponse{}, fmt.Errorf("repl: tail: decoding batch: %w", err)
	}
	return out, nil
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// FollowerStats is the follower's replication gauge set.
type FollowerStats struct {
	Primary           string
	AppliedLSN        uint64
	PrimaryDurableLSN uint64
	FramesApplied     uint64
	Reconnects        uint64
	// LeafFailures counts shipped frames that failed leaf verification;
	// each one dropped its batch for re-fetch instead of applying.
	LeafFailures uint64
	Synced       bool
	FreshAsOf    time.Time
	LastError    string
}

// Stats snapshots the follower's gauges.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	fresh, lastErr := f.freshAsOf, f.lastErr
	f.mu.Unlock()
	return FollowerStats{
		Primary:           f.cfg.Primary,
		AppliedLSN:        f.appliedLSN.Load(),
		PrimaryDurableLSN: f.primaryDurable.Load(),
		FramesApplied:     f.framesApplied.Load(),
		Reconnects:        f.reconnects.Load(),
		LeafFailures:      f.leafFailures.Load(),
		Synced:            f.synced.Load(),
		FreshAsOf:         fresh,
		LastError:         lastErr,
	}
}

// StalenessMs bounds how far this follower's state may trail the
// primary, in milliseconds as of now: the time since the follower last
// observed itself caught up to the primary's durable watermark. The
// bound is one-sided and conservative — the follower may well be
// current (nothing was written since), but every mutation durable on
// the primary more than StalenessMs ago is guaranteed visible here.
// ok is false until the follower has completed its first caught-up
// poll; before that no bound exists and reads should not claim one.
func (f *Follower) StalenessMs(now time.Time) (ms int64, ok bool) {
	if !f.synced.Load() {
		return 0, false
	}
	f.mu.Lock()
	fresh := f.freshAsOf
	f.mu.Unlock()
	if fresh.IsZero() {
		return 0, false
	}
	if d := now.Sub(fresh); d > 0 {
		ms = d.Milliseconds()
	}
	return ms, true
}
