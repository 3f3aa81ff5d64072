package catalog

// Background physical-design advisor: the loop that closes the
// specialization feedback cycle. Each pass walks the catalog, re-advises
// any relation whose extension has grown past the re-advising thresholds
// since its last look, migrates the live store when the advice changed
// (Entry.Respecialize — journaled, so the design survives restarts and
// ships to followers), and seals runs on relations whose adopted
// organization is the append-only vt-ordered log (class-scheduled
// compaction), which measures their packed footprint and publishes nothing.
// No relation's reads wait on a pass: the zone map every scan, rollback and
// as-of read prunes on is kept by every chunk as it fills (storage/seq.go). Followers never run the loop: their
// physical design arrives through the replicated walRespecialize frames,
// keeping replica state a pure function of the primary's log.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/storage"
)

// AdvisorConfig tunes the background advisor's re-advising thresholds. A
// relation is re-examined when its mutation epoch advanced by at least
// MinEpochDelta or its store footprint changed by at least MinBytesDelta
// since the advisor's previous look; a relation the advisor has never
// seen is always examined.
type AdvisorConfig struct {
	MinEpochDelta uint64
	MinBytesDelta int64
}

// DefaultAdvisorConfig is the tsdbd default: look again after 64 epochs
// or 64 KiB of timestamp-column growth, whichever comes first.
func DefaultAdvisorConfig() AdvisorConfig {
	return AdvisorConfig{MinEpochDelta: 64, MinBytesDelta: 64 << 10}
}

// AdvisorReport summarizes one advisor pass.
type AdvisorReport struct {
	Examined   int         // relations past their thresholds this pass
	Migrations []Migration // store migrations performed
	// Sealed counts the elements whose runs the pass sealed: measured into
	// the packed footprint (Physical().Compaction, StoreBytes). Sealing
	// publishes no epoch and changes no answer.
	Sealed int
}

// AdvisePass runs one advisor sweep over the catalog. Exported so tests,
// benchmarks, and operators (via an eventual admin endpoint) can drive a
// pass deterministically without the ticker.
func (c *Catalog) AdvisePass(cfg AdvisorConfig) (AdvisorReport, error) {
	if c.cfg.Follower {
		return AdvisorReport{}, fmt.Errorf("catalog: advisor pass on a follower (designs replicate from the primary)")
	}
	var rep AdvisorReport
	for _, name := range c.Names() {
		if strings.HasPrefix(name, sysPrefix) {
			continue // _sys_events keeps its design: a migration of it would be a decision about the decisions
		}
		e, err := c.Get(name)
		if err != nil {
			continue // dropped concurrently
		}
		if !e.pastAdviseThresholds(cfg) {
			continue
		}
		rep.Examined++
		mig, migrated, err := e.Respecialize()
		if err != nil {
			return rep, fmt.Errorf("catalog: respecialize %q: %w", name, err)
		}
		if migrated {
			rep.Migrations = append(rep.Migrations, mig)
		}
		// Class-scheduled compaction: only the vt-ordered log (the
		// append-only designs) seals runs, which measures their packed
		// footprint. Entry.Compact is a no-op on non-sealing stores, but
		// gating here keeps the sweep from taking their exclusive locks.
		if e.physical.Load().Org == storage.VTOrdered {
			rep.Sealed += e.Compact()
		}
	}
	return rep, nil
}

// pastAdviseThresholds reports whether the relation changed enough since
// the advisor's previous look to warrant re-advising, and if so records
// the current epoch and byte footprint as the new baseline.
func (e *Entry) pastAdviseThresholds(cfg AdvisorConfig) bool {
	epoch := e.Epoch()
	bytes := e.physical.Load().StoreBytes // published with the epoch, refreshed by Compact
	lastE, lastB := e.lastAdviseEpoch.Load(), e.lastAdviseBytes.Load()
	if lastE != 0 {
		dE := epoch - lastE
		dB := bytes - lastB
		if dB < 0 {
			dB = -dB
		}
		if dE < cfg.MinEpochDelta && dB < cfg.MinBytesDelta {
			return false
		}
	}
	e.lastAdviseEpoch.Store(epoch)
	e.lastAdviseBytes.Store(bytes)
	return true
}

// RunAdvisor runs AdvisePass every interval until ctx is canceled. Pass
// errors are reported through report (nil to discard); a failed pass does
// not stop the loop — the catalog may be transiently read-only (WAL
// poisoned) and recover.
func (c *Catalog) RunAdvisor(ctx context.Context, every time.Duration, cfg AdvisorConfig, report func(AdvisorReport, error)) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rep, err := c.AdvisePass(cfg)
			if report != nil {
				report(rep, err)
			}
		}
	}
}
