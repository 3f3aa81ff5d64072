package tsql

import (
	"fmt"

	"repro/internal/plan"
)

// PlanQuery maps the statement's temporal clauses onto the planner's
// query shapes, which the engine answers (query.Engine.Answer). AS OF is a
// plain as-of query, the zero window (plan.Query.VTWindow), and a WHEN under
// it is residual; no single-dimension organization serves it. Allen WHEN
// clauses need whole intervals, so they evaluate as residual filters over
// the current state.
// The shape is also the statement's footprint (plan.Query.Meets): WHERE,
// LIMIT and the window aggregate only ever narrow what its clauses select,
// and a valid-time clamp of an aggregate drops every element outside it.
func PlanQuery(q *Query) plan.Query {
	switch {
	case q.HasAsOf:
		return plan.Query{Kind: plan.QAsOf, TT: int64(q.AsOf)}
	case q.When != nil && q.When.Kind == WhenValidAt:
		return plan.Query{Kind: plan.QTimeslice, VTLo: int64(q.When.At), VTHi: int64(q.When.At) + 1}
	case q.When != nil && q.When.Kind == WhenValidDuring:
		return plan.Query{Kind: plan.QVTRange, VTLo: int64(q.When.Window.Start), VTHi: int64(q.When.Window.End)}
	default:
		return plan.Query{Kind: plan.QCurrent}
	}
}

// Compile lowers a parsed statement onto an access path chosen by the
// shared planner for the given store capabilities, wrapping the residual
// WHEN/WHERE predicates and LIMIT as decorators. The same tree drives both
// EXPLAIN rendering and the catalog's execution, so what EXPLAIN shows is
// what runs.
func Compile(q *Query, a plan.Access) *plan.Node {
	if q.Group != nil {
		return compileAggregate(q, a)
	}
	return Residual(q, plan.Build(a, PlanQuery(q)))
}

// Residual wraps n, the plan the engine runs for PlanQuery(q), in what is
// left of a SELECT without an aggregate — the WHEN that is not the
// engine's, WHERE and LIMIT — as EvalAnswer evaluates it.
func Residual(q *Query, n *plan.Node) *plan.Node {
	if residualWhen(q) {
		n = plan.NewFilter(n, fmt.Sprintf("when %s", describeWhen(q.When)))
	}
	if len(q.Where) > 0 {
		n = plan.NewFilter(n, fmt.Sprintf("%d where predicate(s)", len(q.Where)))
	}
	if q.HasLimit {
		n = plan.NewLimit(n, q.Limit)
	}
	return n
}

// compileAggregate lowers the GROUP BY WINDOW form: the access path the
// planner picks for the statement's clamp as the input (it bounds the chunk
// loop), residual predicates as filter decorators, the window-aggregate
// operator on top, and LIMIT over the emitted windows.
func compileAggregate(q *Query, a plan.Access) *plan.Node {
	n := plan.Build(a, PlanQuery(q))
	if q.When != nil && q.When.Kind == WhenAllen {
		n = plan.NewFilter(n, fmt.Sprintf("when %s", describeWhen(q.When)))
	}
	if len(q.Where) > 0 {
		n = plan.NewFilter(n, fmt.Sprintf("%d where predicate(s)", len(q.Where)))
	}
	n = plan.NewWindowAggregate(n, aggNote(q))
	if q.HasLimit {
		n = plan.NewLimit(n, q.Limit)
	}
	return n
}

func describeWhen(w *WhenClause) string {
	switch w.Kind {
	case WhenValidAt:
		return fmt.Sprintf("valid at %v", w.At)
	case WhenValidDuring:
		return fmt.Sprintf("valid during [%v, %v)", w.Window.Start, w.Window.End)
	default:
		return fmt.Sprintf("%v [%v, %v)", w.Rel, w.Window.Start, w.Window.End)
	}
}
