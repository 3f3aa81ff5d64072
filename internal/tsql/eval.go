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
	"repro/internal/relation"
	"repro/internal/storage"
)

// Result is an evaluated query: column names and rows of values.
type Result struct {
	Columns []string
	Rows    [][]element.Value
}

// Pseudo-columns exposing the system time-stamps and surrogates.
var pseudoColumns = []string{"es", "os", "tt_start", "tt_end", "vt", "vt_start", "vt_end"}

// Eval runs the query against the relation. The caller resolves the
// relation by name (the query's Rel field) before calling.
func Eval(q *Query, r *relation.Relation) (*Result, error) {
	return EvalRunsCtx(context.Background(), q, r.Schema(), storage.Runs(r.Store()))
}

// EvalRunsCtx runs the query over versions taken a run at a time — a
// relation's whole store, read where its runs lie, or the candidate set a
// planned access path produced. Every clause is (re-)applied, so a caller may
// pass a superset of the answer; the predicates are idempotent. The version
// loop re-checks ctx between runs of at most element.MaxRun versions, so a
// caller that has timed out or hung up stops consuming CPU mid-scan instead
// of computing a result no one will read.
func EvalRunsCtx(ctx context.Context, q *Query, schema relation.Schema, versions element.Runs) (*Result, error) {
	if q.Group != nil {
		return EvalAggregate(ctx, q, schema, versions)
	}
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
	getters := make([]func(*element.Element) element.Value, len(cols))
	for i, name := range cols {
		g, err := columnGetter(schema, name)
		if err != nil {
			return nil, err
		}
		getters[i] = g
	}
	preds := make([]func(*element.Element) (bool, error), len(q.Where))
	for i, p := range q.Where {
		f, err := predicate(schema, p)
		if err != nil {
			return nil, err
		}
		preds[i] = f
	}

	var orderKey func(*element.Element) element.Value
	if q.OrderBy != "" {
		g, err := columnGetter(schema, q.OrderBy)
		if err != nil {
			return nil, err
		}
		orderKey = g
	}

	res := &Result{Columns: cols}
	var keys []element.Value
	err := versions.Do(ctx, func(run []*element.Element) error {
	next:
		for _, e := range run {
			// Transaction-time selection: AS OF tt, else the current state.
			if q.HasAsOf {
				if !e.PresentAt(q.AsOf) {
					continue
				}
			} else if !e.Current() {
				continue
			}
			// Valid-time selection.
			if q.When != nil {
				if ok, err := matchWhen(q.When, e); err != nil {
					return err
				} else if !ok {
					continue
				}
			}
			// Attribute selection.
			for _, p := range preds {
				if ok, err := p(e); err != nil {
					return err
				} else if !ok {
					continue next
				}
			}
			row := make([]element.Value, len(getters))
			for i, g := range getters {
				row[i] = g(e)
			}
			res.Rows = append(res.Rows, row)
			if orderKey != nil {
				keys = append(keys, orderKey(e))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if orderKey != nil {
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

// columnGetter resolves a column name to an accessor.
func columnGetter(schema relation.Schema, name string) (func(*element.Element) element.Value, error) {
	switch strings.ToLower(name) {
	case "es":
		return func(e *element.Element) element.Value { return element.Int(int64(e.ES)) }, nil
	case "os":
		return func(e *element.Element) element.Value { return element.Int(int64(e.OS)) }, nil
	case "tt_start":
		return func(e *element.Element) element.Value { return element.Time(e.TTStart) }, nil
	case "tt_end":
		return func(e *element.Element) element.Value { return element.Time(e.TTEnd) }, nil
	case "vt", "vt_start":
		return func(e *element.Element) element.Value { return element.Time(e.VT.Start()) }, nil
	case "vt_end":
		return func(e *element.Element) element.Value { return element.Time(e.VT.End()) }, nil
	}
	for i, c := range schema.Invariant {
		if c.Name == name {
			i := i
			return func(e *element.Element) element.Value { return e.Invariant[i] }, nil
		}
	}
	for i, c := range schema.Varying {
		if c.Name == name {
			i := i
			return func(e *element.Element) element.Value { return e.Varying[i] }, nil
		}
	}
	for i, n := range schema.UserTimes {
		if n == name {
			i := i
			return func(e *element.Element) element.Value { return element.Time(e.UserTimes[i]) }, nil
		}
	}
	return nil, fmt.Errorf("tsql: relation %s has no column %q (pseudo-columns: %s)",
		schema.Name, name, strings.Join(pseudoColumns, ", "))
}

// predicate compiles one WHERE conjunct.
func predicate(schema relation.Schema, p Pred) (func(*element.Element) (bool, error), error) {
	get, err := columnGetter(schema, p.Col)
	if err != nil {
		return nil, err
	}
	return func(e *element.Element) (bool, error) {
		v := get(e)
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
// relation's size — evaluation here is always a scan of the backlog.
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
