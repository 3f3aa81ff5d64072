package catalog

// Batched ingest: one WAL frame, one group-commit entry, one Merkle
// leaf, and one published epoch for N insertions. A batch is the
// mutation pipeline (mutation.go) with N insert units instead of one;
// this file is its public result shape.
//
// Partial failure is per-element: a guard rejection, or a key-reuse
// conflict under per-element keys, marks that index rejected and the rest
// of the batch proceeds. With atomic set, the first rejection aborts the
// whole batch before anything is journaled — all-or-nothing.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/wal"
)

// ErrBatchRejected types an all-or-nothing batch aborted by one
// element's rejection; the error message names the offending index.
var ErrBatchRejected = errors.New("catalog: batch rejected")

// BatchItemStatus is one element's outcome inside a batch.
type BatchItemStatus uint8

const (
	// BatchStored: the element was journaled and applied by this call.
	BatchStored BatchItemStatus = iota
	// BatchDeduped: the element's idempotency key was already in the
	// window; the original element is returned, nothing new was logged.
	BatchDeduped
	// BatchRejected: a guard, validation, or key-reuse error refused the
	// element; Err carries the cause.
	BatchRejected
)

func (s BatchItemStatus) String() string {
	switch s {
	case BatchStored:
		return "stored"
	case BatchDeduped:
		return "deduped"
	case BatchRejected:
		return "rejected"
	}
	return "unknown"
}

// BatchItemResult is the per-index report of InsertBatch.
type BatchItemResult struct {
	Status BatchItemStatus
	Err    string // rejection cause, empty otherwise
	Elem   *element.Element
}

// BatchResult reports a whole batch: one entry per input index, the
// outcome tallies, and the epoch the single publish produced.
type BatchResult struct {
	Items    []BatchItemResult
	Stored   int
	Deduped  int
	Rejected int
	Epoch    uint64
}

// IngestStats reports the entry's lifetime batched-ingest counters.
type IngestStats struct {
	Batches  int64
	Elements int64
}

// IngestStats snapshots the batched-ingest counters.
func (e *Entry) IngestStats() IngestStats {
	return IngestStats{Batches: e.ingBatches.Load(), Elements: e.ingElems.Load()}
}

// InsertBatch stores up to len(ins) new elements as one journaled unit:
// one WAL frame, one epoch. keys, when non-empty, must parallel ins — one
// idempotency key per element, the compatibility path of requests that
// still carry them: a kind-10 frame, and a window entry per key, so a
// replayed batch dedups element by element like replayed single inserts.
// Without keys the batch is unkeyed (InsertBatchKeyed with no key). With
// atomic set, any rejection aborts the whole batch (ErrBatchRejected)
// before anything is journaled; otherwise rejected indexes are reported
// and the rest commit.
func (e *Entry) InsertBatch(ctx context.Context, ins []relation.Insertion, keys []string, atomic bool) (BatchResult, error) {
	if len(keys) == 0 {
		return e.InsertBatchKeyed(ctx, ins, "", 0, atomic)
	}
	if len(keys) != len(ins) {
		return BatchResult{}, fmt.Errorf("catalog: batch carries %d keys for %d elements", len(keys), len(ins))
	}
	return e.insertBatch(ctx, walInsertBatch, keys, oneKey{}, ins, atomic)
}

// InsertBatchKeyed is InsertBatch under one idempotency key for the whole
// batch: item i's identity is (key, i), and the batch is one kind-11 frame
// and one window entry. digest identifies the request the batch came in —
// the server passes the CRC-32C of the body as received, which a retry
// repeats byte for byte. A replay under a key the window remembers is
// answered from the window alone, the same live, after a reboot and on a
// follower: with the same count and digest, each unit the original stored
// comes back deduped with its original element and every other rejected;
// with any other count or digest, or under a key first used for a single
// operation, the call fails with ErrIdemReuse and stores nothing. An
// empty key journals the batch unkeyed.
func (e *Entry) InsertBatchKeyed(ctx context.Context, ins []relation.Insertion, key string, digest uint32, atomic bool) (BatchResult, error) {
	return e.insertBatch(ctx, walInsertBatchOneKey, nil, oneKey{key, uint32(len(ins)), digest}, ins, atomic)
}

func (e *Entry) insertBatch(ctx context.Context, kind wal.Kind, keys []string, one oneKey, ins []relation.Insertion, atomic bool) (BatchResult, error) {
	if err := e.ClientWritable(); err != nil {
		return BatchResult{}, err
	}
	items, epoch, err := e.commit(ctx, kind, keys, one, atomic, stageInserts(ins))
	if err != nil {
		for i, it := range items {
			if atomic && it.Status == BatchRejected {
				return BatchResult{}, fmt.Errorf("%w: item %d: %w", ErrBatchRejected, i, err)
			}
		}
		return BatchResult{}, err
	}
	res := BatchResult{Items: items, Epoch: epoch}
	for _, it := range items {
		switch it.Status {
		case BatchStored:
			res.Stored++
		case BatchDeduped:
			res.Deduped++
		case BatchRejected:
			res.Rejected++
		}
	}
	if res.Stored > 0 {
		e.ingBatches.Add(1)
		e.ingElems.Add(int64(res.Stored))
	}
	return res, nil
}
