package tsql

// Temporal aggregation: lowering the GROUP BY WINDOW form onto the vec
// execution layer. BuildAggSpec compiles the statement's clauses into
// one vec.Spec — the valid/transaction-time selection as a vectorizable
// filter, Allen WHEN clauses and WHERE conjuncts as a residual row
// predicate, the aggregate list as typed calls with column getters —
// and every fold (the row reference and the engine's chunk loop) executes
// that same Spec, which is what makes their answers comparable bit for bit.
//
// Semantics follow snapshot reduction over valid time: an element
// contributes to every window its valid extent [vt⊢, vt⊣) overlaps
// (events as the single chronon [vt, vt+1)), clamped to the WHEN window
// when one is given. Allen WHEN clauses select whole elements (their
// full extent contributes), matching their row-query meaning.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/vec"
)

// BuildAggSpec compiles an aggregate statement against a schema.
func BuildAggSpec(q *Query, schema relation.Schema) (*vec.Spec, error) {
	if q.Group == nil {
		return nil, fmt.Errorf("tsql: not an aggregate query")
	}
	spec := &vec.Spec{Width: q.Group.Width, WKind: q.Group.Kind, K: q.Group.K}
	if q.HasAsOf {
		spec.Filter.AsOf = true
		spec.Filter.TT = int64(q.AsOf)
	}
	var residuals []func(*element.Element) (bool, error)
	if q.When != nil {
		switch q.When.Kind {
		case WhenValidAt:
			spec.Filter.HasVT = true
			spec.Filter.VTLo = int64(q.When.At)
			spec.Filter.VTHi = int64(q.When.At) + 1
		case WhenValidDuring:
			spec.Filter.HasVT = true
			spec.Filter.VTLo = int64(q.When.Window.Start)
			spec.Filter.VTHi = int64(q.When.Window.End)
		case WhenAllen:
			w := q.When
			residuals = append(residuals, func(e *element.Element) (bool, error) {
				return matchWhen(w, e)
			})
		}
	}
	for _, p := range q.Where {
		f, err := predicate(schema, p)
		if err != nil {
			return nil, err
		}
		residuals = append(residuals, f)
	}
	if len(residuals) == 1 {
		spec.Residual = residuals[0]
	} else if len(residuals) > 1 {
		spec.Residual = func(e *element.Element) (bool, error) {
			for _, f := range residuals {
				ok, err := f(e)
				if err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}
	}
	for _, a := range q.Aggs {
		call := vec.AggCall{Col: a.Col}
		switch a.Func {
		case "count":
			call.Kind = vec.AggCount
		case "sum":
			call.Kind = vec.AggSum
		case "min":
			call.Kind = vec.AggMin
		case "max":
			call.Kind = vec.AggMax
		default:
			return nil, fmt.Errorf("tsql: unknown aggregate %q", a.Func)
		}
		if a.Col != "" {
			g, err := columnGetter(schema, a.Col)
			if err != nil {
				return nil, err
			}
			call.Get = g
		}
		spec.Aggs = append(spec.Aggs, call)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// AggColumns names an aggregate result's columns: the window bounds,
// then one column per call (count, or func_col).
func AggColumns(q *Query) []string {
	cols := make([]string, 0, 2+len(q.Aggs))
	cols = append(cols, "win_start", "win_end")
	for _, a := range q.Aggs {
		if a.Col == "" {
			cols = append(cols, a.Func)
		} else {
			cols = append(cols, a.Func+"_"+a.Col)
		}
	}
	return cols
}

// AggToResult shapes an engine's window list into the tabular Result,
// applying LIMIT to the emitted windows; the rows share one slab.
func AggToResult(q *Query, r *vec.AggResult) *Result {
	res := &Result{Columns: AggColumns(q)}
	n := len(r.Start)
	if q.HasLimit && q.Limit < n {
		n = q.Limit
	}
	if n <= 0 {
		return res
	}
	width := 2 + len(r.Vals[0])
	slab := make([]element.Value, 0, n*width)
	res.Rows = make([][]element.Value, n)
	for i := range res.Rows {
		at := len(slab)
		slab = append(slab,
			element.Time(chronon.Chronon(r.Start[i])),
			element.Time(chronon.Chronon(r.End[i])))
		slab = append(slab, r.Vals[i]...)
		res.Rows[i] = slab[at:len(slab):len(slab)]
	}
	return res
}

// EvalAggregate is the standalone aggregate evaluation: the row
// reference engine over a version list (the shell's local mode and EvalOn
// both land here).
func EvalAggregate(ctx context.Context, q *Query, schema relation.Schema, versions element.Runs) (*Result, error) {
	spec, err := BuildAggSpec(q, schema)
	if err != nil {
		return nil, err
	}
	agg, err := vec.RowAggregateRuns(ctx, spec, versions)
	if err != nil {
		return nil, err
	}
	return AggToResult(q, agg), nil
}

// aggNote describes the aggregate list and window geometry for the
// window-aggregate plan node.
func aggNote(q *Query) string {
	parts := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		col := a.Col
		if col == "" {
			col = "*"
		}
		parts[i] = fmt.Sprintf("%s(%s)", a.Func, col)
	}
	note := fmt.Sprintf("%s window %d %v", strings.Join(parts, ", "), q.Group.Width, q.Group.Kind)
	if q.Group.Kind == vec.Rolling {
		note += fmt.Sprintf(" %d", q.Group.K)
	}
	return note
}

// Fingerprint canonicalizes the parsed statement for the query-result
// cache: two texts that parse to the same Query share one cache entry,
// and every semantically distinct clause lands in the key. A USING hint
// changes nothing and is not in it.
func (q *Query) Fingerprint() string {
	result, _ := q.Fingerprints()
	return result
}

// Fingerprints canonicalizes the statement once for both levels of the
// aggregate memo. result is Fingerprint's key for the whole answer.
// partial keys what one sealed run contributes to a window aggregate, so
// it holds only what decides a run's accumulator cells — the aggregate
// list, the window width, and the residual predicate (Allen WHEN, WHERE).
// It leaves out what is applied around the cells: the window mode and its
// extent (tumbling, rolling and cumulative differ only in how cells are
// emitted), the valid-time clamp (a partial is only used for runs the
// clamp does not cut), AS OF (never memoized), ORDER BY and LIMIT. partial is empty for statements that are not aggregates.
func (q *Query) Fingerprints() (result, partial string) {
	var aggs, where strings.Builder
	for _, a := range q.Aggs {
		fmt.Fprintf(&aggs, ";agg=%s(%s)", a.Func, a.Col)
	}
	for _, p := range q.Where {
		fmt.Fprintf(&where, ";where=%s %s %d,%v,%d,%v,%q,%v",
			p.Col, p.Op, p.Lit.Kind, p.Lit.Number, p.Lit.Int, p.Lit.IsInt, p.Lit.Str, p.Lit.Bool)
	}
	when := ""
	if w := q.When; w != nil {
		when = fmt.Sprintf(";when=%d,%d,%d,%d,%v",
			w.Kind, int64(w.At), int64(w.Window.Start), int64(w.Window.End), w.Rel)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "rel=%s", q.Rel)
	for _, c := range q.Columns {
		fmt.Fprintf(&b, ";col=%s", c)
	}
	b.WriteString(aggs.String())
	if q.Group != nil {
		fmt.Fprintf(&b, ";win=%d,%v,%d", q.Group.Width, q.Group.Kind, q.Group.K)
	}
	if q.HasAsOf {
		fmt.Fprintf(&b, ";asof=%d", int64(q.AsOf))
	}
	b.WriteString(when)
	b.WriteString(where.String())
	if q.OrderBy != "" {
		fmt.Fprintf(&b, ";order=%s,%v", q.OrderBy, q.OrderDesc)
	}
	if q.HasLimit {
		fmt.Fprintf(&b, ";limit=%d", q.Limit)
	}
	result = b.String()

	if q.Group == nil {
		return result, ""
	}
	partial = fmt.Sprintf("width=%d", q.Group.Width) + aggs.String()
	if q.When != nil && q.When.Kind == WhenAllen {
		partial += when
	}
	return result, partial + where.String()
}
