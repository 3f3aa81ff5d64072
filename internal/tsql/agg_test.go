package tsql

import (
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/tx"
	"repro/internal/vec"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseAggregate(t *testing.T) {
	q := mustParse(t, "select count(*), sum(salary) from emp group by window(100)")
	if len(q.Aggs) != 2 || q.Aggs[0].Func != "count" || q.Aggs[0].Col != "" ||
		q.Aggs[1].Func != "sum" || q.Aggs[1].Col != "salary" {
		t.Fatalf("aggs = %+v", q.Aggs)
	}
	if q.Group == nil || q.Group.Width != 100 || q.Group.Kind != vec.Tumbling {
		t.Fatalf("group = %+v", q.Group)
	}
	if q.Pick != plan.PickAuto {
		t.Fatalf("pick = %v, want auto", q.Pick)
	}

	q = mustParse(t, "select max(temp) from temps group by window(60, rolling 3) using columnar")
	if q.Group.Kind != vec.Rolling || q.Group.K != 3 {
		t.Fatalf("group = %+v", q.Group)
	}
	if q.Pick != plan.PickColumnar {
		t.Fatalf("pick = %v, want columnar", q.Pick)
	}

	q = mustParse(t, "select min(v) from m group by window(10, cumulative) using row limit 5")
	if q.Group.Kind != vec.Cumulative || q.Pick != plan.PickRow || !q.HasLimit || q.Limit != 5 {
		t.Fatalf("q = %+v group = %+v", q, q.Group)
	}

	// Aggregates compose with the temporal clauses.
	q = mustParse(t, "select count(*) from emp as of 25 when valid during [0, 1000) group by window(100)")
	if !q.HasAsOf || q.When == nil || q.Group == nil {
		t.Fatalf("temporal clauses lost: %+v", q)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"select count(*) from emp", "group by window"},
		{"select name from emp group by window(10)", "aggregate"},
		{"select name, count(*) from emp group by window(10)", "mix"},
		{"select count(*) from emp group by window(10) order by name", "order by"},
		{"select avg(x) from emp group by window(10)", "unknown aggregate"},
		{"select sum(*) from emp group by window(10)", "sum(*)"},
		{"select count(*) from emp group by window(0)", "width"},
		{"select count(*) from emp group by window(10, rolling 0)", "rolling"},
		{"select count(*) from emp group by window(10, sliding)", "tumbling"},
		{"select * from emp using columnar", "using"},
		{"select count(*) from emp group by window(10) using fast", "ROW or COLUMNAR"},
		{"select count(*) from emp group by window(10) group by window(20)", "duplicate"},
		{"select count(*) from emp group by window(10) using row using row", "duplicate"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.src, err, c.want)
		}
	}
}

func TestAggregateFingerprint(t *testing.T) {
	fp := func(src string) string {
		return mustParse(t, src).Fingerprint()
	}
	base := fp("select count(*) from emp group by window(100)")
	if base != fp("select count(*) from emp group by window(100)") {
		t.Fatal("identical statements fingerprint differently")
	}
	distinct := []string{
		"select count(*) from emp group by window(200)",
		"select count(*) from emp group by window(100, cumulative)",
		"select count(*) from emp group by window(100, rolling 2)",
		"select count(*) from emp group by window(100) using row",
		"select sum(salary) from emp group by window(100)",
		"select count(*) from emp as of 5 group by window(100)",
		"select count(*) from emp when valid during [0, 50) group by window(100)",
		"select count(*) from emp where salary > 1 group by window(100)",
		"select count(*) from emp group by window(100) limit 3",
		"select count(*) from other group by window(100)",
	}
	seen := map[string]string{base: "base"}
	for _, src := range distinct {
		f := fp(src)
		if prev, dup := seen[f]; dup {
			t.Errorf("%q fingerprints identically to %q", src, prev)
		}
		seen[f] = src
	}
}

// TestPartialFingerprint: the two memo levels are keyed from one
// canonicalization. Everything applied around a run's accumulator cells —
// window mode and extent, the valid-time clamp, the engine hint, LIMIT —
// changes the result key and leaves the partial key alone; everything that
// decides the cells changes both.
func TestPartialFingerprint(t *testing.T) {
	fps := func(src string) (string, string) { return mustParse(t, src).Fingerprints() }
	const base = "select count(*), max(salary) from emp group by window(100)"
	baseRes, basePart := fps(base)
	if baseRes != mustParse(t, base).Fingerprint() {
		t.Fatal("Fingerprint is not Fingerprints' result key")
	}
	// The result key is an on-the-wire-free but cache-visible format other
	// code prefixes ("agg:"); pin it so the refactor cannot drift it.
	if want := "rel=emp;agg=count();agg=max(salary);win=100,tumbling,0;pick=auto"; baseRes != want {
		t.Fatalf("result fingerprint %q, want %q", baseRes, want)
	}
	shared := []string{
		"select count(*), max(salary) from emp group by window(100, rolling 8)",
		"select count(*), max(salary) from emp group by window(100, rolling 3)",
		"select count(*), max(salary) from emp group by window(100, cumulative)",
		"select count(*), max(salary) from emp when valid during [0, 5000) group by window(100)",
		"select count(*), max(salary) from emp when valid at 7 group by window(100)",
		"select count(*), max(salary) from emp group by window(100) using columnar",
		"select count(*), max(salary) from emp group by window(100) limit 2",
	}
	for _, src := range shared {
		res, part := fps(src)
		if part != basePart {
			t.Errorf("%q: partial fingerprint %q, want the base's %q", src, part, basePart)
		}
		if res == baseRes {
			t.Errorf("%q: result fingerprint equals the base's", src)
		}
	}
	distinct := []string{
		"select count(*), max(salary) from emp group by window(200)",
		"select max(salary), count(*) from emp group by window(100)",
		"select count(*), min(salary) from emp group by window(100)",
		"select count(*), max(salary) from emp where salary > 1 group by window(100)",
		"select count(*), max(salary) from emp where salary > 2 group by window(100)",
		"select count(*), max(salary) from emp when overlaps [0, 50) group by window(100)",
		"select count(*), max(salary) from emp when overlaps [0, 60) group by window(100)",
	}
	seen := map[string]string{basePart: base}
	for _, src := range distinct {
		_, part := fps(src)
		if prev, dup := seen[part]; dup {
			t.Errorf("%q shares a partial fingerprint with %q", src, prev)
		}
		seen[part] = src
	}
	if _, part := fps("select * from emp"); part != "" {
		t.Errorf("a non-aggregate statement has partial fingerprint %q", part)
	}
}

func TestCompileAggregatePlanShape(t *testing.T) {
	a := plan.Access{
		Org: plan.OrgVTLog, N: 10000, Sealed: 9984, Runs: 39,
		HasVTExtent: true, VTMin: 0, VTMax: 100000,
	}
	findKind := func(n *plan.Node, k plan.NodeKind) bool {
		for ; n != nil; n = n.Input {
			if n.Kind == k {
				return true
			}
		}
		return false
	}

	q := mustParse(t, "select count(*) from emp group by window(100) using columnar")
	n := Compile(q, a)
	if n.Leaf().Kind != plan.ColumnarScan {
		t.Fatalf("leaf = %v, want columnar-scan", n.Leaf().Kind)
	}
	if !findKind(n, plan.WindowAggregate) {
		t.Fatal("no window-aggregate operator in the plan")
	}
	if r := n.Render(); !strings.Contains(r, "columnar-scan") || !strings.Contains(r, "window-aggregate") {
		t.Fatalf("rendering misses the batch operators:\n%s", r)
	}

	q = mustParse(t, "select count(*) from emp group by window(100) using row")
	if n := Compile(q, a); n.Leaf().Kind == plan.ColumnarScan {
		t.Fatal("USING ROW still picked the columnar leaf")
	}

	// A mostly-sealed scan-shaped query should win for columnar on cost.
	q = mustParse(t, "select count(*) from emp group by window(100)")
	if n := Compile(q, a); n.Leaf().Kind != plan.ColumnarScan {
		t.Fatalf("auto pick chose %v over columnar on a fully sealed log", n.Leaf().Kind)
	}
	// An unsealed heap must not.
	if n := Compile(q, plan.Access{Org: plan.OrgHeap, N: 100}); n.Leaf().Kind == plan.ColumnarScan {
		t.Fatal("auto pick chose columnar with nothing sealed")
	}
}

// aggFixture builds a relation with deterministic contents for end-to-end
// aggregate evaluation.
func aggFixture(t testing.TB) *relation.Relation {
	t.Helper()
	r := relation.New(relation.Schema{
		Name: "emp", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "name", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "salary", Type: element.KindInt}},
	}, tx.NewLogicalClock(0, 10))
	for i := 0; i < 40; i++ {
		if _, err := r.Insert(relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(i * 5)),
			Invariant: []element.Value{element.String_("e")},
			Varying:   []element.Value{element.Int(int64(i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestEvalAggregateEndToEnd(t *testing.T) {
	r := aggFixture(t)
	q := mustParse(t, "select count(*), sum(salary), min(salary), max(salary) from emp group by window(50)")
	res, err := Eval(q, r)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"win_start", "win_end", "count", "sum_salary", "min_salary", "max_salary"}
	if len(res.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
	}
	for i, c := range wantCols {
		if res.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
		}
	}
	// vt = 5i for i in [0, 40): windows of width 50 hold 10 events each.
	if len(res.Rows) != 4 {
		t.Fatalf("%d windows, want 4", len(res.Rows))
	}
	// Window [50, 100) holds i = 10..19: count 10, sum 145, min 10, max 19.
	row := res.Rows[1]
	if n, _ := row[2].IntVal(); n != 10 {
		t.Fatalf("count = %v", row[2])
	}
	if s, _ := row[3].IntVal(); s != 145 {
		t.Fatalf("sum = %v", row[3])
	}
	if lo, _ := row[4].IntVal(); lo != 10 {
		t.Fatalf("min = %v", row[4])
	}
	if hi, _ := row[5].IntVal(); hi != 19 {
		t.Fatalf("max = %v", row[5])
	}

	// WHERE and WHEN narrow the fold.
	q = mustParse(t, "select count(*) from emp when valid during [0, 100) where salary >= 5 group by window(50)")
	res, err = Eval(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d windows, want 2", len(res.Rows))
	}
	if n, _ := res.Rows[0][2].IntVal(); n != 5 { // i = 5..9
		t.Fatalf("filtered count = %v, want 5", res.Rows[0][2])
	}

	// LIMIT truncates emitted windows, not input rows.
	q = mustParse(t, "select count(*) from emp group by window(50) limit 2")
	res, err = Eval(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
}

func TestExplainAggregateShowsEngine(t *testing.T) {
	r := aggFixture(t)
	res, err := Run("explain select count(*) from emp group by window(50)",
		func(string) (*relation.Relation, bool) { return r, true })
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.Contains(out, "window-aggregate") {
		t.Fatalf("EXPLAIN misses the aggregate operator:\n%s", out)
	}
	// Standalone evaluation always runs the row engine; EXPLAIN must not
	// claim a columnar scan it would not execute.
	if strings.Contains(out, "columnar-scan") {
		t.Fatalf("standalone EXPLAIN shows columnar scan:\n%s", out)
	}
}
