// Package query executes the three kinds of queries the paper requires of
// temporal relations (§1) — current, historical (time-slice), and rollback
// — over a physical store chosen by the storage advisor, and reports which
// strategy each query used and how much data it touched. Strategy selection
// is delegated to the shared planner (internal/plan): the engine describes
// its store's capabilities as a plan.Access, the planner picks the cheapest
// sound access path, and the engine executes the resulting typed plan tree.
// The contrast between plans on specialized vs. general organizations is
// the measurable form of the paper's claim that specializations enable
// better "query processing strategies".
package query

import (
	"context"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Result is a query answer together with its plan and cost.
type Result struct {
	Elements []*element.Element
	// Node is the typed plan tree the engine executed. Node.String() names
	// the strategy on one line, e.g. "binary search (vt-ordered log)"; the
	// rendering is golden-pinned by tests.
	Node *plan.Node
	// Touched is the number of stored elements examined.
	Touched int
}

// Engine executes temporal queries over a store. Queries are safe to run
// concurrently as long as the store is not being mutated (the catalog layer
// serializes writers against readers, and counts what each plan touched).
type Engine struct {
	store   storage.Store
	classes []core.Class

	// Bounded-specialization pushdown: when the relation is declared with
	// a two-sided fixed bound lo ≤ vt − tt ≤ hi, a valid-time predicate
	// converts to the transaction-time window [vt − hi, vt − lo], which the
	// tt-ordered log binary-searches. Set via UseVTOffsetBounds.
	boundLo, boundHi int64
	hasBounds        bool
}

// UseVTOffsetBounds enables bounded-specialization pushdown with the given
// fixed offsets (lo ≤ vt − tt ≤ hi), typically obtained from a declared
// EventSpec's OffsetBounds. It has effect only over a tt-ordered store.
// Inverted bounds are a declaration bug and are rejected with an error.
func (en *Engine) UseVTOffsetBounds(lo, hi int64) error {
	if lo > hi {
		return fmt.Errorf("query: inverted offset bounds [%d, %d]", lo, hi)
	}
	en.boundLo, en.boundHi, en.hasBounds = lo, hi, true
	return nil
}

// New builds an engine over a store built for the given declared classes.
func New(store storage.Store, classes []core.Class) *Engine {
	return &Engine{store: store, classes: classes}
}

// ForRelation builds an engine for a relation: it asks the advisor for the
// right store given the declared classes, loads the relation's versions
// into it, and returns the engine with the advice.
func ForRelation(r *relation.Relation, classes []core.Class) (*Engine, storage.Advice, error) {
	advice := storage.Advise(classes, r.Schema().ValidTime)
	st := advice.New()
	for _, e := range r.Versions() {
		if err := st.Insert(e); err != nil {
			return nil, advice, fmt.Errorf("query: loading %s store: %w", advice.Store, err)
		}
	}
	return New(st, classes), advice, nil
}

// Store exposes the underlying store.
func (en *Engine) Store() storage.Store { return en.store }

// Snapshot returns an engine over an immutable snapshot of the store,
// carrying the same declared classes and pushdown bounds. The snapshot
// engine is safe for fully concurrent queries (its store never mutates);
// the catalog publishes one per mutation epoch so readers never block
// behind writers.
func (en *Engine) Snapshot() *Engine {
	return &Engine{
		store:     en.store.Snapshot(),
		classes:   en.classes,
		boundLo:   en.boundLo,
		boundHi:   en.boundHi,
		hasBounds: en.hasBounds,
	}
}

// Access describes the store's capabilities to the planner.
func (en *Engine) Access() plan.Access {
	a := plan.Access{N: en.store.Len(), Org: en.store.Kind().PlanOrg()}
	if _, ok := en.store.(*storage.IndexedEventStore); ok {
		a.VTIndex = true
	}
	if en.hasBounds {
		a.HasOffsetBounds, a.OffsetLo, a.OffsetHi = true, en.boundLo, en.boundHi
	}
	return a
}

// Plan builds, without executing, the plan the engine would run for q —
// the EXPLAIN entry point.
func (en *Engine) Plan(q plan.Query) *plan.Node { return plan.Build(en.Access(), q) }

// run plans the query, executes the chosen access path and materializes
// the answer; none of the facade's kinds polls a context.
func (en *Engine) run(q plan.Query) Result {
	a, node, touched, _ := en.Answer(context.Background(), q)
	return Result{Elements: a.Elements(), Node: node, Touched: touched}
}

// Answer is the one place a query selects by time: it plans q, executes the
// chosen access path and returns the answer as the store holds it
// (storage.Answer, nothing of a sealed chunk materialized), the plan and the
// number of stored elements touched. Every kind is answered as
// internal/refmodel defines it, over plan.Query.VTWindow; only the as-of scan
// (storage.AsOf) polls ctx. The answer is stable only over an engine on a
// snapshot, as the catalog's pinned views are: over a live store a close
// made before the answer is encoded or materialized changes it.
func (en *Engine) Answer(ctx context.Context, q plan.Query) (storage.Answer, *plan.Node, int, error) {
	node := plan.Build(en.Access(), q)
	a, touched, err := en.execute(ctx, node.Leaf(), q)
	return a, node, touched, err
}

// execute runs the plan's access-path leaf against the store, which filters
// by the query's temporal predicates as it reads.
func (en *Engine) execute(ctx context.Context, leaf *plan.Node, q plan.Query) (storage.Answer, int, error) {
	switch q.Kind {
	case plan.QCurrent:
		a, touched := storage.Current(en.store)
		return a, touched, nil
	case plan.QRollback:
		a, touched := storage.RollbackAnswer(en.store, chronon.Chronon(q.TT))
		return a, touched, nil
	}
	lo, last := q.VTWindow()
	if q.Kind == plan.QAsOf {
		return storage.AsOf(ctx, en.store, chronon.Chronon(lo), chronon.Chronon(last), chronon.Chronon(q.TT))
	}
	if rs, ok := en.store.(*storage.RunStore); ok && leaf.Kind == plan.TTWindowPushdown {
		a, touched := rs.Pushdown(chronon.Chronon(leaf.WinLo), chronon.Chronon(leaf.WinHi), chronon.Chronon(lo), chronon.Chronon(last))
		return a, touched, nil
	}
	// The vt-ordered search, the index seek or the zone-map scan: the one
	// the store's label and type allow, which is the one the leaf names.
	a, touched := storage.ValidAnswer(en.store, chronon.Chronon(lo), chronon.Chronon(last))
	return a, touched, nil
}

// Timeslice answers the historical query: current elements valid at vt.
func (en *Engine) Timeslice(vt chronon.Chronon) Result {
	return en.run(plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1})
}

// VTRange answers a historical range query: current elements valid during
// any part of [lo, hi).
func (en *Engine) VTRange(lo, hi chronon.Chronon) Result {
	return en.run(plan.Query{Kind: plan.QVTRange, VTLo: int64(lo), VTHi: int64(hi)})
}

// Rollback answers the rollback query: elements present at transaction
// time tt.
func (en *Engine) Rollback(tt chronon.Chronon) Result {
	return en.run(plan.Query{Kind: plan.QRollback, TT: int64(tt)})
}

// Current answers the conventional query: the elements of the current
// state. Every organization answers it with a scan of live elements.
func (en *Engine) Current() Result {
	return en.run(plan.Query{Kind: plan.QCurrent})
}
