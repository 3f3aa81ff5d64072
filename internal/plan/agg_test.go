package plan_test

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/tsql"
)

// TestAggregateLeavesOfTheBenchmarkShapes pins the access path, and its
// estimate, that every aggregate statement tsbench issues compiles to — the
// whole-relation tumbling, rolling and cumulative folds, the 4,096-chronon
// clamp at the head and the 65,536-chronon window inside the history — with
// no hint and under each USING hint, over the three accesses they meet: a
// vt-ordered log, a tt-ordered log, and one with a declared two-sided offset
// bound. The leaf is always Build's for the statement's planner query — a
// hint changes nothing — and it is what bounds the chunk loop.
func TestAggregateLeavesOfTheBenchmarkShapes(t *testing.T) {
	const n, head = 100_000, 10 * (100_000 - 1) // vt = 10·i, as the sensor streams
	vtLog := plan.Access{Org: plan.OrgVTLog, N: n}
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
		want   pick
	}{
		{"vt-log", vtLog, whole, pick{plan.FullScan, n}},
		{"vt-log", vtLog, []string{newest, window}, pick{plan.VTBinarySearch, 18}},
		{"tt-log", ttLog, append(whole, newest, window), pick{plan.FullScan, n}},
		{"bounded", bounded, whole, pick{plan.FullScan, n}},
		{"bounded", bounded, []string{newest}, pick{plan.TTWindowPushdown, 4297}},
		{"bounded", bounded, []string{window}, pick{plan.TTWindowPushdown, 65737}},
	}
	for _, c := range cases {
		for _, stmt := range c.stmts {
			for _, hint := range []string{"", " USING ROW", " USING COLUMNAR"} {
				q, err := tsql.Parse(stmt + hint)
				if err != nil {
					t.Fatalf("Parse(%q): %v", stmt+hint, err)
				}
				leaf := tsql.Compile(q, c.a).Leaf()
				if want := plan.Build(c.a, tsql.PlanQuery(q)).Leaf(); *leaf != *want {
					t.Errorf("%s: %q compiled to %+v, Build gives %+v", c.access, stmt+hint, *leaf, *want)
				}
				if got := (pick{leaf.Kind, leaf.Est}); got != c.want {
					t.Errorf("%s: %q planned %v (est. %d), want %v (est. %d)", c.access, stmt+hint, got.kind, got.est, c.want.kind, c.want.est)
				}
			}
		}
	}
}
