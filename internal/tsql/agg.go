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
	"strconv"

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

// AggToResult shapes an engine's window rows into the tabular Result: the
// columns, and the rows as emitted — already [win_start, win_end, v…] —
// cut to LIMIT.
func AggToResult(q *Query, r *vec.AggResult) *Result {
	res := &Result{Columns: AggColumns(q)}
	n := len(r.Rows)
	if q.HasLimit && q.Limit < n {
		n = q.Limit
	}
	if n > 0 {
		res.Rows = r.Rows[:n:n]
	}
	return res
}

// EvalAggregate is the standalone aggregate evaluation: the row
// reference engine over a version list (the shell's local mode and Eval
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
// window-aggregate plan node: "count(*), sum(v) window 60 rolling 3".
func aggNote(q *Query) string {
	var stack [128]byte
	b := stack[:0]
	for i, a := range q.Aggs {
		if i > 0 {
			b = append(b, ", "...)
		}
		col := a.Col
		if col == "" {
			col = "*"
		}
		b = append(append(append(append(b, a.Func...), '('), col...), ')')
	}
	b = strconv.AppendInt(append(b, " window "...), q.Group.Width, 10)
	b = append(append(b, ' '), q.Group.Kind.String()...)
	if q.Group.Kind == vec.Rolling {
		b = strconv.AppendInt(append(b, ' '), q.Group.K, 10)
	}
	return string(b)
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
//
// Both keys are appended in one pass into one buffer and cut from one
// string: partial repeats the aggregate, WHEN and WHERE clauses of result,
// copied from where result wrote them. The bytes are those the clauses'
// fmt verbs wrote when the keys were first defined (fingerprintDefinition
// in the tests holds them to it); a changed byte would split or merge
// cache entries.
func (q *Query) Fingerprints() (result, partial string) {
	var stack [256]byte
	b := append(stack[:0], "rel="...)
	b = append(b, q.Rel...)
	for _, c := range q.Columns {
		b = append(append(b, ";col="...), c...)
	}
	aggs := len(b)
	for _, a := range q.Aggs {
		b = append(append(b, ";agg="...), a.Func...)
		b = append(append(append(b, '('), a.Col...), ')')
	}
	aggsEnd := len(b)
	if g := q.Group; g != nil {
		b = strconv.AppendInt(append(b, ";win="...), g.Width, 10)
		b = append(append(b, ','), g.Kind.String()...)
		b = strconv.AppendInt(append(b, ','), g.K, 10)
	}
	if q.HasAsOf {
		b = strconv.AppendInt(append(b, ";asof="...), int64(q.AsOf), 10)
	}
	when := len(b)
	if w := q.When; w != nil {
		b = strconv.AppendUint(append(b, ";when="...), uint64(w.Kind), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.At), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.Window.Start), 10)
		b = strconv.AppendInt(append(b, ','), int64(w.Window.End), 10)
		b = append(append(b, ','), w.Rel.String()...)
	}
	where := len(b)
	for _, p := range q.Where {
		b = append(append(b, ";where="...), p.Col...)
		b = append(append(append(b, ' '), p.Op...), ' ')
		b = strconv.AppendUint(b, uint64(p.Lit.Kind), 10)
		b = strconv.AppendFloat(append(b, ','), p.Lit.Number, 'g', -1, 64)
		b = strconv.AppendInt(append(b, ','), p.Lit.Int, 10)
		b = strconv.AppendBool(append(b, ','), p.Lit.IsInt)
		b = strconv.AppendQuote(append(b, ','), p.Lit.Str)
		b = strconv.AppendBool(append(b, ','), p.Lit.Bool)
	}
	whereEnd := len(b)
	if q.OrderBy != "" {
		b = append(append(b, ";order="...), q.OrderBy...)
		b = strconv.AppendBool(append(b, ','), q.OrderDesc)
	}
	if q.HasLimit {
		b = strconv.AppendInt(append(b, ";limit="...), int64(q.Limit), 10)
	}
	n := len(b)
	if q.Group == nil {
		return string(b), ""
	}
	b = strconv.AppendInt(append(b, "width="...), q.Group.Width, 10)
	b = append(b, b[aggs:aggsEnd]...)
	if q.When != nil && q.When.Kind == WhenAllen {
		b = append(b, b[when:where]...)
	}
	b = append(b, b[where:whereEnd]...)
	s := string(b)
	return s[:n], s[n:]
}
