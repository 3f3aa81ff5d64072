package catalog

import (
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
)

// Unkeyed, uncancellable forms of the Entry API, for tests that exercise
// something other than idempotency keys and deadlines.

func insert(e *Entry, ins relation.Insertion) (*element.Element, error) {
	return e.InsertKeyed(context.Background(), ins, "")
}

func remove(e *Entry, es surrogate.Surrogate) error {
	return e.DeleteKeyed(context.Background(), es, "")
}

func modify(e *Entry, es surrogate.Surrogate, vt element.Timestamp, varying []element.Value) (*element.Element, error) {
	return e.ModifyKeyed(context.Background(), es, vt, varying, "")
}

func current(e *Entry) QueryResult {
	out, _ := e.CurrentCtx(context.Background())
	return out
}

func timeslice(e *Entry, vt chronon.Chronon) QueryResult {
	out, _ := e.TimesliceCtx(context.Background(), vt)
	return out
}

func rollback(e *Entry, tt chronon.Chronon) QueryResult {
	out, _ := e.RollbackCtx(context.Background(), tt)
	return out
}

func timesliceAsOf(e *Entry, vt, tt chronon.Chronon) QueryResult {
	out, _ := e.TimesliceAsOfCtx(context.Background(), vt, tt)
	return out
}

// elems flattens a pinned view's store, for tests that pick elements by
// arrival position.
func (v *readView) elems() []*element.Element { return storage.Elements(v.engine.Store()) }

// defined answers a window aggregate by the definition: vec.RowAggregateRuns
// (inside tsql.EvalAggregate) over every element of the pinned view, below
// the catalog — no planner, no reader, no cache, no partial. It is the
// oracle the aggregate path is held to.
func (v *readView) defined(q *tsql.Query) (*tsql.Result, error) {
	return tsql.EvalAggregate(context.Background(), q, v.schema, storage.Runs(v.engine.Store()))
}

// onTheHeap re-labels e's store as the heap. No history reaches that label
// any more — every transaction time is stamped past the last one (the
// relation's stamp), so the tt-ordered log always holds what is stored —
// but relabel still falls back to it and the store still serves it, so the
// tests of what runs on each label put a relation there by hand. Like any
// re-label it keeps the store, its chunks and its generation.
func onTheHeap(t testing.TB, e *Entry) {
	t.Helper()
	_ = e.locked.Exclusive(func(*relation.Relation) error {
		if err := e.store.Retype(storage.Heap); err != nil {
			t.Fatalf("Retype: %v", err)
		}
		e.engine = query.New(e.store, perRelationClasses(e.decls))
		e.advice = storage.Advice{Store: storage.Heap, Source: storage.SourceDefault}
		e.publish()
		return nil
	})
}

// publishEverything publishes an epoch whose change is everything — what a
// publish of no records (a declaration, a re-label, a compaction, a boot)
// records — and touches nothing else: the store, its chunks, their close
// counts and the generation stay as they are, so the chunk memo stays warm,
// while no cells kept at an earlier epoch can be brought past it. The next
// aggregate takes the whole chunk loop.
func publishEverything(t testing.TB, e *Entry) {
	t.Helper()
	_ = e.locked.Exclusive(func(*relation.Relation) error {
		e.publish()
		return nil
	})
}

// lsns lists one generation of the window: each key with the LSN of the
// frame that carried it.
func lsns(gen map[string]dedupHit) map[string]uint64 {
	out := make(map[string]uint64, len(gen))
	for k, h := range gen {
		out[k] = h.lsn
	}
	return out
}
