package integrity

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Artifact is one scrubbable unit of sealed state: a sealed WAL
// segment, a snapshot shard, or one relation's chunk zone maps.
type Artifact struct {
	Kind string `json:"kind"` // "wal-segment", "snapshot", "runs"
	Name string `json:"name"` // segment file name, snapshot path, or relation
	Rel  string `json:"rel,omitempty"`
	// Bytes sizes the artifact for the scrubber's rate limiter.
	Bytes int64 `json:"bytes"`
}

// ScrubberConfig wires a Scrubber to its data source. The scrubber
// itself owns only pacing, cursor persistence, and accounting; what an
// artifact is and how it is verified belongs to the catalog.
type ScrubberConfig struct {
	// List enumerates the artifacts to walk, in a stable order.
	List func() ([]Artifact, error)
	// Verify re-reads one artifact and returns a non-nil error when
	// its content no longer matches its checksums/Merkle roots.
	Verify func(Artifact) error
	// OnCorrupt reacts to one detection (quarantine + degrade +
	// repair live here). Errors from OnCorrupt are reported via the
	// journal by the callee; the scrub pass continues.
	OnCorrupt func(Artifact, error)
	// BytesPerSec caps scrub read bandwidth; 0 means unlimited.
	BytesPerSec int64
	// CursorPath persists the last completed artifact after each
	// verification, so a killed process resumes mid-pass instead of
	// restarting. Empty disables persistence.
	CursorPath string
}

// ScrubStats is the scrubber's lifetime accounting, served under the
// /metrics integrity section.
type ScrubStats struct {
	Passes    uint64 // completed full walks
	Artifacts uint64 // artifacts verified
	Bytes     uint64 // bytes verified
	Failures  uint64 // verification failures detected
	LastPass  int64  // unix seconds the last full pass completed
}

// Scrubber walks sealed artifacts on a byte-rate budget, verifying
// each against its checksums and invoking OnCorrupt on mismatch. One
// RunOnce is one full pass; Run loops on an interval.
type Scrubber struct {
	cfg ScrubberConfig

	passes    atomic.Uint64
	artifacts atomic.Uint64
	bytes     atomic.Uint64
	failures  atomic.Uint64
	lastPass  atomic.Int64
}

// NewScrubber builds a scrubber over the config.
func NewScrubber(cfg ScrubberConfig) *Scrubber {
	return &Scrubber{cfg: cfg}
}

// Stats snapshots the scrubber's counters.
func (s *Scrubber) Stats() ScrubStats {
	return ScrubStats{
		Passes:    s.passes.Load(),
		Artifacts: s.artifacts.Load(),
		Bytes:     s.bytes.Load(),
		Failures:  s.failures.Load(),
		LastPass:  s.lastPass.Load(),
	}
}

// cursor is the persisted resume point: the last artifact fully
// verified in the current pass.
type cursor struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

func (s *Scrubber) loadCursor() (cursor, bool) {
	if s.cfg.CursorPath == "" {
		return cursor{}, false
	}
	b, err := os.ReadFile(s.cfg.CursorPath)
	if err != nil {
		return cursor{}, false
	}
	var c cursor
	if json.Unmarshal(b, &c) != nil || c.Kind == "" {
		return cursor{}, false
	}
	return c, true
}

func (s *Scrubber) saveCursor(c cursor) {
	if s.cfg.CursorPath == "" {
		return
	}
	b, err := json.Marshal(c)
	if err != nil {
		return
	}
	// Best effort, temp+rename so a crash never leaves a torn cursor.
	tmp := s.cfg.CursorPath + ".tmp"
	if os.WriteFile(tmp, b, 0o644) == nil {
		os.Rename(tmp, s.cfg.CursorPath)
	}
}

func (s *Scrubber) clearCursor() {
	if s.cfg.CursorPath != "" {
		os.Remove(s.cfg.CursorPath)
	}
}

// RunOnce performs one scrub pass: every artifact List reports,
// resuming after a persisted cursor when one exists, paced to
// BytesPerSec. It returns how many artifacts were verified and how
// many failed. A canceled context stops between artifacts with the
// cursor persisted, which is exactly what lets a killed node resume.
func (s *Scrubber) RunOnce(ctx context.Context) (checked, failed int, err error) {
	arts, err := s.cfg.List()
	if err != nil {
		return 0, 0, fmt.Errorf("integrity: scrub list: %w", err)
	}
	// Resume after the cursor artifact when it is still present;
	// otherwise start over (the artifact set changed under us).
	start := 0
	if c, ok := s.loadCursor(); ok {
		for i, a := range arts {
			if a.Kind == c.Kind && a.Name == c.Name {
				start = i + 1
				break
			}
		}
	}
	limiter := newRateLimiter(s.cfg.BytesPerSec)
	for i := start; i < len(arts); i++ {
		if ctx.Err() != nil {
			return checked, failed, ctx.Err()
		}
		a := arts[i]
		if err := limiter.wait(ctx, a.Bytes); err != nil {
			return checked, failed, err
		}
		verr := s.cfg.Verify(a)
		checked++
		s.artifacts.Add(1)
		s.bytes.Add(uint64(a.Bytes))
		if verr != nil {
			failed++
			s.failures.Add(1)
			if s.cfg.OnCorrupt != nil {
				s.cfg.OnCorrupt(a, verr)
			}
		}
		s.saveCursor(cursor{Kind: a.Kind, Name: a.Name})
	}
	// Pass complete: clear the cursor so the next pass starts fresh.
	s.clearCursor()
	s.passes.Add(1)
	s.lastPass.Store(time.Now().Unix())
	return checked, failed, nil
}

// Run loops RunOnce on the interval until the context ends. Pass
// errors are reported through report (nil-safe) and do not stop the
// loop — a scrubber outliving transient faults is the point.
func (s *Scrubber) Run(ctx context.Context, every time.Duration, report func(checked, failed int, err error)) {
	if every <= 0 {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			checked, failed, err := s.RunOnce(ctx)
			if report != nil {
				report(checked, failed, err)
			}
		}
	}
}

// rateLimiter paces byte consumption with a simple accumulating
// budget: sleep long enough that the bytes consumed so far never
// exceed rate × elapsed.
type rateLimiter struct {
	rate  int64
	start time.Time
	spent int64
}

func newRateLimiter(rate int64) *rateLimiter {
	return &rateLimiter{rate: rate, start: time.Now()}
}

func (r *rateLimiter) wait(ctx context.Context, bytes int64) error {
	if r.rate <= 0 {
		return nil
	}
	r.spent += bytes
	due := time.Duration(float64(r.spent) / float64(r.rate) * float64(time.Second))
	sleep := due - time.Since(r.start)
	if sleep <= 0 {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(sleep):
		return nil
	}
}
