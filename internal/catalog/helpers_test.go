package catalog

import (
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/refmodel"
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

// answered is a query's result as the server gets it (AnswerCtx), with the
// answer read out of the store for the test to compare: its Elements hides
// the result's own field, which AnswerCtx leaves nil.
type answered struct {
	QueryResult
	Elements []*element.Element
}

// answerCtx answers pq as the server does and reads the answer out.
func answerCtx(ctx context.Context, e *Entry, pq plan.Query) (answered, error) {
	qr, err := e.AnswerCtx(ctx, pq)
	return answered{qr, qr.Answer().Elements()}, err
}

func currentCtx(ctx context.Context, e *Entry) (answered, error) {
	return answerCtx(ctx, e, plan.Query{Kind: plan.QCurrent})
}

func timesliceCtx(ctx context.Context, e *Entry, vt chronon.Chronon) (answered, error) {
	return answerCtx(ctx, e, plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1})
}

func rollbackCtx(ctx context.Context, e *Entry, tt chronon.Chronon) (answered, error) {
	return answerCtx(ctx, e, plan.Query{Kind: plan.QRollback, TT: int64(tt)})
}

func timesliceAsOfCtx(ctx context.Context, e *Entry, vt, tt chronon.Chronon) (answered, error) {
	return answerCtx(ctx, e, plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), VTHi: int64(vt) + 1, TT: int64(tt)})
}

func current(e *Entry) answered {
	out, _ := currentCtx(context.Background(), e)
	return out
}

func timeslice(e *Entry, vt chronon.Chronon) answered {
	out, _ := timesliceCtx(context.Background(), e, vt)
	return out
}

func rollback(e *Entry, tt chronon.Chronon) answered {
	out, _ := rollbackCtx(context.Background(), e, tt)
	return out
}

func timesliceAsOf(e *Entry, vt, tt chronon.Chronon) answered {
	out, _ := timesliceAsOfCtx(context.Background(), e, vt, tt)
	return out
}

// elems flattens a pinned view's store, for tests that pick elements by
// arrival position.
func (v *readView) elems() []*element.Element { return storage.Elements(v.engine.Store()) }

// defined answers a window aggregate by the definition: vec.RowAggregate
// (inside tsql.EvalAggregate) over every element of the pinned view, below
// the catalog — no planner, no reader, no cache, no partial. It is the
// oracle the aggregate path is held to.
func (v *readView) defined(q *tsql.Query) (*tsql.Result, error) {
	return tsql.EvalAggregate(context.Background(), q, v.schema, v.elems())
}

// selected answers a SELECT by the definition over the pinned view's
// versions: a window aggregate as defined does, any other statement by
// refmodel's selection by time (selection), then tsql's residual over
// exactly those versions — no engine, no planner, no store walk.
func (v *readView) selected(q *tsql.Query) (*tsql.Result, error) {
	if q.Group != nil {
		return v.defined(q)
	}
	a := heapAnswer(selection(q, v.elems()))
	return tsql.EvalAnswer(context.Background(), q, v.schema, &a)
}

// heapAnswer is the answer that takes every version of a heap holding els,
// in order: what a read of exactly them gives.
func heapAnswer(els []*element.Element) storage.Answer {
	st, pos := storage.NewHeap(), make([]int, len(els))
	for i, e := range els {
		if err := st.Insert(e); err != nil {
			panic(err)
		}
		pos[i] = i
	}
	return storage.AnswerAt(st, pos)
}

// selection is a SELECT's selection by time as refmodel defines it: AS OF
// is the state stored at its tt, a WHEN VALID AT or DURING the current
// elements valid then, anything else the current state.
func selection(q *tsql.Query, els []*element.Element) []*element.Element {
	switch {
	case q.HasAsOf:
		return refmodel.Rollback(els, q.AsOf)
	case q.When != nil && q.When.Kind == tsql.WhenValidAt:
		return refmodel.Timeslice(els, q.When.At)
	case q.When != nil && q.When.Kind == tsql.WhenValidDuring:
		return refmodel.VTRange(els, q.When.Window.Start, q.When.Window.End)
	}
	return refmodel.Current(els)
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
