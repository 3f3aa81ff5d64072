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
// the answer.
func (en *Engine) run(q plan.Query) Result {
	a, node, touched := en.Answer(q)
	return Result{Elements: a.Elements(), Node: node, Touched: touched}
}

// Answer plans q and executes the chosen access path, returning the answer
// as the store holds it (storage.Answer) — nothing of a sealed chunk is
// materialized — with the plan and the number of stored elements touched.
// The answer is stable only over an engine on a snapshot, as the catalog's
// pinned views are: over a live store a close made before the answer is
// encoded or materialized changes it.
func (en *Engine) Answer(q plan.Query) (storage.Answer, *plan.Node, int) {
	node := plan.Build(en.Access(), q)
	a, touched := en.execute(node, q)
	return a, node, touched
}

// execute runs the plan's access-path leaf against the store. The leaf's
// result already satisfies the query's temporal predicates (the stores
// filter as they read), so decorators need no separate pass here.
func (en *Engine) execute(node *plan.Node, q plan.Query) (storage.Answer, int) {
	leaf := node.Leaf()
	switch leaf.Kind {
	case plan.TTWindowPushdown:
		// Any other store answers the predicate itself, below.
		if rs, ok := en.store.(*storage.RunStore); ok {
			return rs.Pushdown(chronon.Chronon(leaf.WinLo), chronon.Chronon(leaf.WinHi), chronon.Chronon(q.VTLo), chronon.Chronon(q.VTHi))
		}
	case plan.TTBinarySearch:
		return storage.RollbackAnswer(en.store, chronon.Chronon(q.TT))
	case plan.VTBinarySearch, plan.BTreeIndexSeek:
		return storage.VTRangeAnswer(en.store, chronon.Chronon(q.VTLo), chronon.Chronon(q.VTHi))
	}
	// Full scan, shaped by the query kind.
	switch q.Kind {
	case plan.QCurrent:
		return storage.Current(en.store)
	case plan.QRollback:
		return storage.RollbackAnswer(en.store, chronon.Chronon(q.TT))
	default:
		return storage.VTRangeAnswer(en.store, chronon.Chronon(q.VTLo), chronon.Chronon(q.VTHi))
	}
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
