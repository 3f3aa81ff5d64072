package tsql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/vec"
)

// fingerprintDefinition is the definition of the two cache keys: the fmt
// verbs they were first written with. Fingerprints must produce the same
// bytes, or a cache entry kept under one spelling is missed (or, worse,
// two statements meet under one key).
func fingerprintDefinition(q *Query) (result, partial string) {
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

// aggNoteDefinition is the window-aggregate plan node's note as it was
// first written, with fmt; responses and EXPLAIN carry it.
func aggNoteDefinition(q *Query) string {
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

// sameFingerprints holds q's keys, and an aggregate's plan note, to their
// definitions.
func sameFingerprints(t *testing.T, src string, q *Query) {
	t.Helper()
	gotR, gotP := q.Fingerprints()
	wantR, wantP := fingerprintDefinition(q)
	if gotR != wantR || gotP != wantP {
		t.Errorf("%q fingerprints\n got (%q, %q)\nwant (%q, %q)", src, gotR, gotP, wantR, wantP)
	}
	if q.Group != nil {
		if got, want := aggNote(q), aggNoteDefinition(q); got != want {
			t.Errorf("%q plan note %q, want %q", src, got, want)
		}
	}
}

// TestFingerprintsAreTheDefinition holds the one-pass keys to the fmt
// definition, byte for byte, over the parser fuzzers' seeds and statements
// that reach every clause: WHERE literals of every kind, AS OF, every Allen
// relation, ORDER BY and LIMIT.
func TestFingerprintsAreTheDefinition(t *testing.T) {
	for _, src := range append(append([]string(nil), parseSeeds...), aggregateSeeds...) {
		if q, err := Parse(src); err == nil {
			sameFingerprints(t, src, q)
		}
	}
	clauses := []string{
		"select * from emp where n == 3 and f != -3.5 and s < 'it' and u >= 'é\t\"x' and b = true and c <= false",
		"select * from emp where f > 0.000001 and g > 100000000000000000000000.5 and h == -0.0 and i == 1.",
		"select * from emp where z == 99999999999999999999 and y == -9223372036854775808",
		"select * from emp where s == '' and t == '\\' and u == '<&>'",
		"select a, b, es, vt_start from emp as of 25",
		"select * from emp as of '1992-01-01 10:00:00' when valid at -7",
		"select * from emp when valid during [-100, 100) order by salary desc limit 7",
		"select * from emp order by name asc limit 0",
		"select * from emp order by name",
		"select count(*), sum(salary), min(salary), max(salary), count(name) from emp when valid during [0, 200) where salary > 2 and name != 'x' group by window(100, rolling 4) limit 3",
		"select sum(salary) from emp as of 9 when overlaps [1, 99) where salary >= 1.25 group by window(7, cumulative)",
		"explain select name from emp where name == 'a' limit 2",
	}
	for r := interval.Relation(0); r < interval.NumRelations; r++ {
		clauses = append(clauses,
			fmt.Sprintf("select * from emp when %s [10, 20)", r),
			fmt.Sprintf("select count(*) from emp when %s [10, 20) where salary < 5 group by window(10)", r))
	}
	for _, src := range clauses {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		sameFingerprints(t, src, q)
	}
}
