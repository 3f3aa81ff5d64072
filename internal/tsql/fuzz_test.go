package tsql

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/plan"
	"repro/internal/refmodel"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/vec"
)

// parseSeeds and aggregateSeeds start FuzzParse and FuzzParseAggregate;
// the fingerprint oracle (TestFingerprintsAreTheDefinition) runs over them
// too.
var (
	parseSeeds = []string{
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
		"select es, vt from emp when valid at 9223372036854775807",
		"select name, tt_end from emp as of 30 when valid during [0, 25) order by salary desc limit 2",
		"select es from emp when valid during [-4611686018427387904, 4611686018427387904) where salary >= 1",
		"select sum(salary) from emp group by window(1, cumulative)",
	}
	aggregateSeeds = []string{
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
	}
)

// FuzzParse checks that the query parser never panics and that whatever
// parses evaluates as defined (defined): Eval's rows, in order, or its
// error, against a small fixture relation with versions at the ends of the
// line and a closed one. Parse and Eval together stay inside the statement
// cost bound (fuzzcost.Statement).
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	r := relation.New(relation.Schema{
		Name: "emp", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "name", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "salary", Type: element.KindFloat}},
	}, tx.NewLogicalClock(0, 10))
	for i, vt := range []chronon.Chronon{0, 10, 20, 30, 40, chronon.MinChronon, chronon.MaxChronon, math.MaxInt64} {
		el, err := r.Insert(relation.Insertion{
			VT:        element.EventAt(vt),
			Invariant: []element.Value{element.String_("x")},
			Varying:   []element.Value{element.Float(float64(i))},
		})
		if err != nil {
			f.Fatal(err)
		}
		if i == 2 {
			if err := r.Delete(el.ES); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		var (
			q   *Query
			res *Result
			err error
		)
		fuzzcost.Statement.Bound(t, len(src), func() {
			if q, err = Parse(src); err == nil {
				res, err = Eval(q, r)
			}
		})
		if q == nil {
			return
		}
		sameFingerprints(t, src, q)
		want, wantErr := defined(q, r)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%q: Eval fails with %v, the definition with %v", src, err, wantErr)
		case err == nil && !reflect.DeepEqual(res.Rows, want.Rows):
			t.Fatalf("%q: Eval has rows %v, the definition %v", src, res.Rows, want.Rows)
		}
	})
}

// defined answers q over r as defined: a window aggregate by
// vec.RowAggregate (EvalAggregate) over r's versions, anything else by
// refmodel's selection by time over them — AS OF the state stored at its
// tt, WHEN VALID AT or DURING the current elements valid then, else the
// current state — and then the residual over exactly that list.
func defined(q *Query, r *relation.Relation) (*Result, error) {
	ctx, els := context.Background(), r.Versions()
	if q.Group != nil {
		return EvalAggregate(ctx, q, r.Schema(), els)
	}
	switch {
	case q.HasAsOf:
		els = refmodel.Rollback(els, q.AsOf)
	case q.When != nil && q.When.Kind == WhenValidAt:
		els = refmodel.Timeslice(els, q.When.At)
	case q.When != nil && q.When.Kind == WhenValidDuring:
		els = refmodel.VTRange(els, q.When.Window.Start, q.When.Window.End)
	default:
		els = refmodel.Current(els)
	}
	// The answer over a heap of exactly those versions, in their order.
	st, pos := storage.NewHeap(), make([]int, len(els))
	for i, e := range els {
		if err := st.Insert(e); err != nil {
			return nil, err
		}
		pos[i] = i
	}
	a := storage.AnswerAt(st, pos)
	return EvalAnswer(ctx, q, r.Schema(), &a)
}

// FuzzParseAggregate drives the aggregate grammar: parsing never panics,
// parsed statements honor the co-occurrence invariants checkAggregateShape
// promises, and whatever parses both compiles (across every store
// organization, with and without a declared bound) and evaluates
// against a fixture relation without panicking.
func FuzzParseAggregate(f *testing.F) {
	for _, seed := range aggregateSeeds {
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
		sameFingerprints(t, src, q)
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
		sameFingerprints(t, src, q)
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
