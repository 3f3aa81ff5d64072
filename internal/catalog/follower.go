package catalog

// Follower-side apply path for WAL-shipping replication.
//
// A follower catalog is a read-only replica: its Config.Follower flag
// routes every client mutation into the same typed ErrReadOnly gate a
// poisoned WAL trips, and the only writer is ApplyReplicated, which
// replays batches of WAL records shipped from the primary through the
// exact code path boot-time recovery uses — which is the apply the
// primary itself ran when it wrote them. That reuse is the correctness
// argument: replay is idempotent (records at or below a relation's
// persisted watermark are skipped per-relation), keyed frames rebuild the
// idempotency dedup window, and each batch publishes a fresh epoch — so a timeslice at epoch E on the follower is the same
// relation state the primary published at its epoch E' covering the same
// log prefix (transaction time is append-only; see DESIGN §9).

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/wal"
)

// errFollowerReadOnly types a mutation refused by a follower replica.
// Wraps ErrReadOnly so clients and the server's error mapper need one
// branch for "this process cannot accept writes".
func errFollowerReadOnly() error {
	return fmt.Errorf("%w: follower replica; route mutations to the primary", ErrReadOnly)
}

// Follower reports whether the catalog is a read-only replica.
func (c *Catalog) Follower() bool { return c.cfg.Follower }

// ApplyReplicated replays a batch of WAL records shipped from the
// primary, in LSN order, through the driver boot recovery uses
// (Catalog.replay). Records a relation has already applied (LSN at or
// below its watermark) are skipped, which makes re-shipment after a
// reconnect or restart safe; fresh epochs are published once per touched
// relation per batch, not per record.
func (c *Catalog) ApplyReplicated(recs []wal.Record) error {
	if !c.cfg.Follower {
		return fmt.Errorf("catalog: ApplyReplicated on a non-follower catalog")
	}
	if err := c.replay(recs); err != nil {
		return fmt.Errorf("catalog: replicated apply, %w", err)
	}
	return nil
}

// ResumeLSN is the LSN the follower should resume tailing from after a
// restart: the minimum persisted watermark across relations. Relations
// ahead of it skip the re-shipped records (replay is idempotent), and
// no relation can miss one. Zero when the catalog is empty — tail from
// the beginning — or when boot dropped a corrupt shard, whose relation
// now exists only in the primary's feed.
func (c *Catalog) ResumeLSN() uint64 {
	if c.igRefetch.Load() {
		return 0
	}
	var min uint64
	first := true
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			if lsn := e.walLSN.Load(); first || lsn < min {
				min, first = lsn, false
			}
		}
		sh.mu.RUnlock()
	}
	return min
}

// MaxAppliedLSN is the highest WAL position any relation has applied —
// the follower's replication-lag gauge against the primary's durable
// watermark.
func (c *Catalog) MaxAppliedLSN() uint64 {
	var max uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			if lsn := e.walLSN.Load(); lsn > max {
				max = lsn
			}
		}
		sh.mu.RUnlock()
	}
	return max
}

// AppliedLSN reports the relation's WAL watermark: the highest log
// position whose effects this entry has applied.
func (e *Entry) AppliedLSN() uint64 { return e.walLSN.Load() }

// HasIdemKey reports whether the relation's idempotency dedup window
// remembers key — exposed so tests can assert the window survives
// replication and restarts.
func (e *Entry) HasIdemKey(key string) bool {
	found := false
	_ = e.locked.View(func(r *relation.Relation) error {
		_, found = e.dedup.lookup(key)
		return nil
	})
	return found
}
