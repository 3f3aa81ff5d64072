package catalog

import (
	"context"

	"repro/internal/chronon"
	"repro/internal/element"
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
// oracle both engines are held to.
func (v *readView) defined(q *tsql.Query) (*tsql.Result, error) {
	return tsql.EvalAggregate(context.Background(), q, v.schema, storage.Runs(v.engine.Store()))
}

// keys lists the window's remembered keys, oldest first: the order they
// will be evicted in.
func (w *dedupWindow) keys() []string {
	return append(append([]string(nil), w.ring[w.oldest:]...), w.ring[:w.oldest]...)
}
