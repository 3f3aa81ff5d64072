package plan_test

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/tsql"
)

// TestAggregateLeavesOfTheBenchmarkShapes pins which access path
// BuildAggregate picks, and at what estimate, for the aggregate statements
// tsbench issues — the whole-relation tumbling, rolling and cumulative folds,
// the 4,096-chronon clamp at the head and the 65,536-chronon window inside
// the history, on the planner's choice and under USING ROW — over the three
// accesses they meet: a sealed vt-ordered log, an unsealed tt-ordered log, and
// one with a declared two-sided offset bound. How a leaf executes may change
// (the chunk loop it bounds); which leaf the planner picks is this table.
func TestAggregateLeavesOfTheBenchmarkShapes(t *testing.T) {
	const n, head = 100_000, 10 * (100_000 - 1) // vt = 10·i, as the sensor streams
	vtLog := plan.Access{Org: plan.OrgVTLog, N: n, Sealed: 390 * 256, Runs: 390,
		HasVTExtent: true, VTMin: 0, VTMax: head + 1}
	ttLog := plan.Access{Org: plan.OrgTTLog, N: n}
	bounded := ttLog
	bounded.HasOffsetBounds, bounded.OffsetLo, bounded.OffsetHi = true, -100, 100

	whole := []string{
		"SELECT count(*) FROM s GROUP BY WINDOW(16384)",
		"SELECT sum(value) FROM s GROUP BY WINDOW(16384)",
		"SELECT max(value) FROM s GROUP BY WINDOW(16384, ROLLING 8)",
		"SELECT count(*) FROM s GROUP BY WINDOW(16384, CUMULATIVE)",
	}
	newest := fmt.Sprintf("SELECT count(*) FROM s WHEN VALID DURING [%d, %d) GROUP BY WINDOW(256)", head+1-4096, head+1)
	window := "SELECT sum(value) FROM s WHEN VALID DURING [400000, 465536) GROUP BY WINDOW(4096)"

	type pick struct {
		kind plan.NodeKind
		est  int
	}
	cases := []struct {
		access string
		a      plan.Access
		stmts  []string
		auto   pick
		row    pick
	}{
		{"vt-log", vtLog, whole, pick{plan.ColumnarScan, 13206}, pick{plan.FullScan, n}},
		{"vt-log", vtLog, []string{newest}, pick{plan.VTBinarySearch, 18}, pick{plan.VTBinarySearch, 18}},
		{"vt-log", vtLog, []string{window}, pick{plan.ColumnarScan, 1243}, pick{plan.VTBinarySearch, 18}},
		{"tt-log", ttLog, append(whole, newest, window), pick{plan.FullScan, n}, pick{plan.FullScan, n}},
		{"bounded", bounded, whole, pick{plan.FullScan, n}, pick{plan.FullScan, n}},
		{"bounded", bounded, []string{newest}, pick{plan.TTWindowPushdown, 4297}, pick{plan.TTWindowPushdown, 4297}},
		{"bounded", bounded, []string{window}, pick{plan.TTWindowPushdown, 65737}, pick{plan.TTWindowPushdown, 65737}},
	}
	for _, c := range cases {
		for _, stmt := range c.stmts {
			for _, hint := range []struct {
				suffix string
				want   pick
			}{{"", c.auto}, {" USING ROW", c.row}} {
				q, err := tsql.Parse(stmt + hint.suffix)
				if err != nil {
					t.Fatalf("Parse(%q): %v", stmt+hint.suffix, err)
				}
				leaf := plan.BuildAggregate(c.a, tsql.PlanQuery(q), q.Pick).Leaf()
				if got := (pick{leaf.Kind, leaf.Est}); got != hint.want {
					t.Errorf("%s: %q planned %v (est. %d), want %v (est. %d)", c.access, stmt+hint.suffix, got.kind, got.est, hint.want.kind, hint.want.est)
				}
			}
		}
	}
}
