package tsql

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/interval"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Result is an evaluated query: column names and rows of values.
type Result struct {
	Columns []string
	Rows    [][]element.Value
}

// Pseudo-columns exposing the system time-stamps and surrogates.
var pseudoColumns = []string{"es", "os", "tt_start", "tt_end", "vt", "vt_start", "vt_end"}

// Eval runs the query against the relation. The caller resolves the
// relation by name (the query's Rel field) before calling. A SELECT without
// an aggregate selects by time as the catalog's does, through the engine
// over the relation's own store (query.Engine.Answer), and EvalAnswer
// evaluates the rest; an aggregate is the definition, vec.RowAggregate,
// over the relation's versions.
func Eval(q *Query, r *relation.Relation) (*Result, error) {
	ctx := context.Background()
	if q.Group != nil {
		return EvalAggregate(ctx, q, r.Schema(), r.Versions())
	}
	a, _, _, _ := query.New(r.Store(), nil).Answer(ctx, PlanQuery(q)) // fails only when ctx is done
	return EvalAnswer(ctx, q, r.Schema(), &a)
}

// EvalAnswer evaluates a SELECT without an aggregate over a, the engine's
// answer to its selection by time (PlanQuery): what is left is the residual
// Residual prints — an Allen WHEN, a WHEN under AS OF, WHERE — then the
// projection, ORDER BY and LIMIT. Versions are read where the answer holds
// them, one at a time into one scratch version (storage.Span.Load), and
// never materialized; the rows copy their values out. The loop re-checks ctx
// once a span, so a caller that has timed out or hung up stops consuming CPU
// mid-answer instead of computing a result no one will read.
func EvalAnswer(ctx context.Context, q *Query, schema relation.Schema, a *storage.Answer) (*Result, error) {
	cols := q.Columns
	if len(cols) == 0 {
		// SELECT *: surrogates, stamps, then attributes in schema order.
		cols = []string{"es", "os", "tt_start", "tt_end"}
		if schema.ValidTime == element.EventStamp {
			cols = append(cols, "vt")
		} else {
			cols = append(cols, "vt_start", "vt_end")
		}
		for _, c := range schema.Invariant {
			cols = append(cols, c.Name)
		}
		for _, c := range schema.Varying {
			cols = append(cols, c.Name)
		}
		for _, n := range schema.UserTimes {
			cols = append(cols, n)
		}
	}
	refs := make([]vec.ColRef, len(cols))
	for i, name := range cols {
		ref, err := columnRef(schema, name)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	var preds []func(*element.Element) (bool, error)
	if residualWhen(q) {
		preds = append(preds, func(e *element.Element) (bool, error) { return matchWhen(q.When, e) })
	}
	for _, p := range q.Where {
		f, err := predicate(schema, p)
		if err != nil {
			return nil, err
		}
		preds = append(preds, f)
	}

	var orderKey vec.ColRef
	ordered := q.OrderBy != ""
	if ordered {
		ref, err := columnRef(schema, q.OrderBy)
		if err != nil {
			return nil, err
		}
		orderKey = ref
	}

	res := &Result{Columns: cols}
	var keys []element.Value
	add := func(e *element.Element) error {
		for _, p := range preds {
			if ok, err := p(e); err != nil || !ok {
				return err
			}
		}
		row := make([]element.Value, len(refs))
		for i, ref := range refs {
			row[i] = ref.Of(e)
		}
		res.Rows = append(res.Rows, row)
		if ordered {
			keys = append(keys, orderKey.Of(e))
		}
		return nil
	}
	v := new(storage.Version)
	for i := range a.Spans() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := &a.Spans()[i]
		for _, e := range sp.Elements() { // an index seek's
			if err := add(e); err != nil {
				return nil, err
			}
		}
		it := sp.Slots().Stretches()
		for lo, hi := it.Next(); lo < storage.ChunkSize; lo, hi = it.Next() {
			for j := lo; j < hi; j++ {
				if err := add(sp.Load(j, v)); err != nil {
					return nil, err
				}
			}
		}
	}
	if ordered {
		// Sort rows and their keys together; keys are computed from the
		// source elements, so ORDER BY works for non-projected columns too.
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if q.OrderDesc {
				return valueLess(keys[idx[b]], keys[idx[a]])
			}
			return valueLess(keys[idx[a]], keys[idx[b]])
		})
		sorted := make([][]element.Value, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if q.HasLimit && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// residualWhen reports whether the WHEN clause is left to the residual: an
// Allen relation, which needs whole intervals, or any WHEN under AS OF,
// whose selection is the one at tt (PlanQuery). A WHEN VALID AT or DURING
// otherwise is the engine's selection.
func residualWhen(q *Query) bool {
	return q.When != nil && (q.HasAsOf || q.When.Kind == WhenAllen)
}

// valueLess orders two values of one column: nulls first, then the natural
// order of the shared kind.
func valueLess(a, b element.Value) bool {
	switch {
	case a.IsNull():
		return !b.IsNull()
	case b.IsNull():
		return false
	}
	return a.Compare(b) < 0
}

func matchWhen(w *WhenClause, e *element.Element) (bool, error) {
	switch w.Kind {
	case WhenValidAt:
		return e.ValidAt(w.At), nil
	case WhenValidDuring:
		if c, ok := e.VT.Event(); ok {
			return w.Window.Contains(c), nil
		}
		iv, _ := e.VT.Interval()
		return iv.Overlaps(w.Window), nil
	case WhenAllen:
		iv, ok := e.VT.Interval()
		if !ok {
			return false, fmt.Errorf("tsql: Allen WHEN clause on an event-stamped relation")
		}
		return interval.Relate(iv, w.Window) == w.Rel, nil
	}
	return false, fmt.Errorf("tsql: unknown WHEN kind %d", w.Kind)
}

// columnRef resolves a column name to where it lies: a pseudo-column, a
// value slot or a user-defined time.
func columnRef(schema relation.Schema, name string) (vec.ColRef, error) {
	switch strings.ToLower(name) {
	case "es":
		return vec.ColRef{Src: vec.ColES}, nil
	case "os":
		return vec.ColRef{Src: vec.ColOS}, nil
	case "tt_start":
		return vec.ColRef{Src: vec.ColTTStart}, nil
	case "tt_end":
		return vec.ColRef{Src: vec.ColTTEnd}, nil
	case "vt", "vt_start":
		return vec.ColRef{Src: vec.ColVTStart}, nil
	case "vt_end":
		return vec.ColRef{Src: vec.ColVTEnd}, nil
	}
	for i, c := range schema.Invariant {
		if c.Name == name {
			return vec.ColRef{Src: vec.ColInvariant, Slot: i}, nil
		}
	}
	for i, c := range schema.Varying {
		if c.Name == name {
			return vec.ColRef{Src: vec.ColVarying, Slot: i}, nil
		}
	}
	for i, n := range schema.UserTimes {
		if n == name {
			return vec.ColRef{Src: vec.ColUser, Slot: i}, nil
		}
	}
	return vec.ColRef{}, fmt.Errorf("tsql: relation %s has no column %q (pseudo-columns: %s)",
		schema.Name, name, strings.Join(pseudoColumns, ", "))
}

// predicate compiles one WHERE conjunct.
func predicate(schema relation.Schema, p Pred) (func(*element.Element) (bool, error), error) {
	ref, err := columnRef(schema, p.Col)
	if err != nil {
		return nil, err
	}
	return func(e *element.Element) (bool, error) {
		v := ref.Of(e)
		cmp, ok, err := compare(v, p.Lit)
		if err != nil {
			return false, err
		}
		if !ok { // null never matches
			return false, nil
		}
		switch p.Op {
		case "==":
			return cmp == 0, nil
		case "!=":
			return cmp != 0, nil
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		case ">=":
			return cmp >= 0, nil
		}
		return false, fmt.Errorf("tsql: unknown operator %q", p.Op)
	}, nil
}

// compare orders a stored value against a literal. ok=false for null
// values (three-valued logic collapsed to "no match").
func compare(v element.Value, lit Literal) (cmp int, ok bool, err error) {
	if v.IsNull() {
		return 0, false, nil
	}
	switch lit.Kind {
	case LitNumber:
		switch v.Kind() {
		case element.KindInt:
			i, _ := v.IntVal()
			if lit.IsInt {
				return cmp64(i, lit.Int), true, nil
			}
			return cmpFloat(float64(i), lit.Number), true, nil
		case element.KindFloat:
			f, _ := v.FloatVal()
			return cmpFloat(f, lit.Number), true, nil
		case element.KindTime:
			t, _ := v.TimeVal()
			if lit.IsInt {
				return cmp64(int64(t), lit.Int), true, nil
			}
		}
		return 0, false, fmt.Errorf("tsql: cannot compare %v to a number", v.Kind())
	case LitString:
		switch v.Kind() {
		case element.KindString:
			s, _ := v.Str()
			return strings.Compare(s, lit.Str), true, nil
		case element.KindTime:
			// Allow comparing time columns to 'YYYY-MM-DD' literals.
			cv, cerr := chronon.ParseCivil(lit.Str)
			if cerr != nil {
				return 0, false, fmt.Errorf("tsql: %v", cerr)
			}
			t, _ := v.TimeVal()
			return cmp64(int64(t), int64(cv.Chronon())), true, nil
		}
		return 0, false, fmt.Errorf("tsql: cannot compare %v to a string", v.Kind())
	case LitBool:
		if v.Kind() != element.KindBool {
			return 0, false, fmt.Errorf("tsql: cannot compare %v to a bool", v.Kind())
		}
		b, _ := v.BoolVal()
		x, y := 0, 0
		if b {
			x = 1
		}
		if lit.Bool {
			y = 1
		}
		return cmp64(int64(x), int64(y)), true, nil
	}
	return 0, false, fmt.Errorf("tsql: unknown literal kind")
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Run parses and evaluates a query in one step, resolving the relation
// through the lookup function. An EXPLAIN statement returns the rendered
// plan as a one-column result instead of executing. Standalone relations
// carry no advisor-chosen store, so the plan is built for a heap of the
// relation's size; Eval takes whichever path the relation's own store's
// label allows, with the same answer.
func Run(src string, lookup func(name string) (*relation.Relation, bool)) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	r, ok := lookup(q.Rel)
	if !ok {
		return nil, fmt.Errorf("tsql: no relation %q", q.Rel)
	}
	if q.Explain {
		return ExplainResult(Compile(q, plan.Access{Org: plan.OrgHeap, N: r.Len()})), nil
	}
	return Eval(q, r)
}

// ExplainResult renders a compiled plan as a one-column result, so every
// surface that formats query results can show EXPLAIN output unchanged.
func ExplainResult(node *plan.Node) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(node.Render(), "\n") {
		res.Rows = append(res.Rows, []element.Value{element.String_(line)})
	}
	return res
}

// Format renders a result as an aligned text table.
func (res *Result) Format() string {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range res.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d row(s))\n", len(res.Rows))
	return b.String()
}
