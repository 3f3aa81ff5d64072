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

// FuzzParse checks the query parser never panics and that parsed queries
// evaluate without panicking against a small fixture relation.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"select * from emp",
		"select name, salary from emp as of 25 when valid at 100 where salary > 150",
		"select who from shifts when meets [100, 120)",
		"select a from b where c == 'x' and d != 5",
		"select x from y when valid during ['1992-01-01', '1992-02-01')",
		"select",
		"select * from emp where a ==",
		"select * from emp when overlapped-by [5, 1)",
		"'",
		"select * from emp where v == -3.5",
	} {
		f.Add(seed)
	}
	r := relation.New(relation.Schema{
		Name: "emp", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "name", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "salary", Type: element.KindFloat}},
	}, tx.NewLogicalClock(0, 10))
	for i := 0; i < 5; i++ {
		if _, err := r.Insert(relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(i * 10)),
			Invariant: []element.Value{element.String_("x")},
			Varying:   []element.Value{element.Float(float64(i))},
		}); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		// Whatever parses must evaluate or fail cleanly — never panic.
		_, _ = Eval(q, r)
	})
}

// FuzzParseAggregate drives the aggregate grammar: parsing never panics,
// parsed statements honor the co-occurrence invariants checkAggregateShape
// promises, and whatever parses both compiles (across every store
// organization, with and without a declared bound) and evaluates
// against a fixture relation without panicking.
func FuzzParseAggregate(f *testing.F) {
	for _, seed := range []string{
		"select count(*) from emp group by window(100)",
		"select count(*), sum(salary) from emp group by window(50) using columnar",
		"select max(salary) from emp group by window(60, rolling 3) using row",
		"select min(salary) from emp group by window(10, cumulative) limit 4",
		"select count(salary) from emp as of 25 when valid during [0, 200) group by window(100)",
		"select sum(salary) from emp where salary > 2 group by window(25)",
		"select count(*) from emp group by window(99999999999999999999)",
		"select sum(*) from emp group by window(10)",
		"select count(*) from emp group by window(10, rolling)",
		"select name, count(*) from emp group by window(10)",
		"select count(*) from emp using turbo",
		"explain select count(*) from emp group by window(50)",
	} {
		f.Add(seed)
	}
	r := relation.New(relation.Schema{
		Name: "emp", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "name", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "salary", Type: element.KindInt}},
	}, tx.NewLogicalClock(0, 10))
	for i := 0; i < 8; i++ {
		if _, err := r.Insert(relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(i * 10)),
			Invariant: []element.Value{element.String_("x")},
			Varying:   []element.Value{element.Int(int64(i))},
		}); err != nil {
			f.Fatal(err)
		}
	}
	accesses := []plan.Access{
		{Org: plan.OrgHeap, N: 100},
		{Org: plan.OrgVTLog, N: 1024},
		{Org: plan.OrgTTLog, N: 1024, HasOffsetBounds: true, OffsetLo: -100, OffsetHi: 100},
		{Org: plan.OrgTTLog, N: 1024},
		{Org: plan.OrgVTLog, N: 0},
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		// The shape invariants the parser promises downstream layers.
		if q.Group == nil {
			if len(q.Aggs) > 0 {
				t.Fatalf("parser let aggregate state through without GROUP BY: %+v", q)
			}
		} else {
			if len(q.Aggs) == 0 || len(q.Columns) > 0 || q.OrderBy != "" {
				t.Fatalf("parser violated aggregate co-occurrence rules: %+v", q)
			}
			if q.Group.Width < 1 || q.Group.Width > vec.MaxWidth {
				t.Fatalf("window width %d out of range", q.Group.Width)
			}
			if q.Group.Kind == vec.Rolling && (q.Group.K < 1 || q.Group.K > vec.MaxRolling) {
				t.Fatalf("rolling extent %d out of range", q.Group.K)
			}
			if q.Fingerprint() == "" {
				t.Fatal("empty fingerprint")
			}
		}
		for _, a := range accesses {
			node := Compile(q, a)
			if node == nil || node.Render() == "" {
				t.Fatalf("Compile(%q, %+v) produced no plan", src, a)
			}
		}
		// Whatever parses must evaluate or fail cleanly — never panic.
		_, _ = Eval(q, r)
	})
}

// FuzzParseExplain drives the EXPLAIN path: anything that parses must
// compile to a plan and render without panicking, for every combination of
// store capability the planner distinguishes, and the rendered tree must
// agree with the one-line plan name on its access path.
func FuzzParseExplain(f *testing.F) {
	for _, seed := range []string{
		"explain select * from emp",
		"explain select * from emp when valid at 100",
		"explain select name from emp as of 25 when valid at 100 where salary > 150",
		"explain select who from shifts when meets [100, 120)",
		"explain select x from y when valid during [5, 50) order by x limit 3",
		"explain explain select * from emp",
		"explain",
		"select * from emp when valid at 100",
	} {
		f.Add(seed)
	}
	accesses := []plan.Access{
		{Org: plan.OrgHeap, N: 100},
		{Org: plan.OrgHeap, N: 100, VTIndex: true},
		{Org: plan.OrgTTLog, N: 100},
		{Org: plan.OrgTTLog, N: 100, HasOffsetBounds: true, OffsetLo: -10, OffsetHi: 10},
		{Org: plan.OrgVTLog, N: 100},
		{Org: plan.OrgVTLog, N: 0},
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		for _, a := range accesses {
			node := Compile(q, a)
			if node == nil {
				t.Fatalf("Compile(%q, %+v) returned nil", src, a)
			}
			rendered := node.Render()
			if rendered == "" {
				t.Fatalf("empty rendering for %q", src)
			}
			res := ExplainResult(node)
			if len(res.Columns) != 1 || len(res.Rows) == 0 {
				t.Fatalf("ExplainResult shape: %d column(s), %d row(s)", len(res.Columns), len(res.Rows))
			}
			// The one-line name and the rendered tree describe the same leaf.
			if !strings.Contains(node.String(), node.Leaf().Org.String()) &&
				!node.Leaf().Bitemporal &&
				node.Leaf().Kind != plan.TTWindowPushdown &&
				node.Leaf().Kind != plan.BTreeIndexSeek {
				t.Fatalf("plan name %q does not name the leaf organization %q",
					node.String(), node.Leaf().Org)
			}
		}
	})
}
