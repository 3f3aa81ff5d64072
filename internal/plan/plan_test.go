package plan

import (
	"fmt"
	"math"
	"testing"
)

// TestBuildChoices pins the planner's choice — the access-path leaf and its
// estimate — over organization × query kind × what the store declares or
// indexes, at the ledger benchmark's size. The estimator prices elements
// touched under the organization's order and nothing else: zone-map pruning
// is an execution-time saving it does not model (ROADMAP item 4), so a change
// to how a scan prunes must leave every row of this table, and with it the
// per-plan-kind counters, where they are.
func TestBuildChoices(t *testing.T) {
	const n = 20_000
	type choice struct {
		leaf NodeKind
		est  int
	}
	scan, ttSearch, vtSearch, seek := choice{FullScan, n}, choice{TTBinarySearch, 16}, choice{VTBinarySearch, 16}, choice{BTreeIndexSeek, 16}
	caps := map[string]func(*Access){
		"plain":    func(*Access) {},
		"bounded":  func(a *Access) { a.HasOffsetBounds, a.OffsetLo, a.OffsetHi = true, -30, 70 },
		"vt-index": func(a *Access) { a.VTIndex = true },
	}
	// The valid-time queries, in the table's column order.
	vtQueries := [3]Query{
		{Kind: QTimeslice, VTLo: 5000, VTHi: 5001},
		{Kind: QVTRange, VTLo: 5000, VTHi: 5400},
		{Kind: QVTRange, VTLo: 0, VTHi: 1 << 40},
	}
	for _, row := range []struct {
		org      Org
		cap      string
		rollback choice
		vt       [3]choice // time-slice, a 400-chronon range, everything
	}{
		{OrgHeap, "plain", scan, [3]choice{scan, scan, scan}},
		{OrgHeap, "bounded", scan, [3]choice{scan, scan, scan}}, // a bound needs the tt order to become a window
		{OrgHeap, "vt-index", scan, [3]choice{seek, seek, seek}},
		{OrgTTLog, "plain", ttSearch, [3]choice{scan, scan, scan}},
		// tt ∈ [VTLo − 70, VTHi − 1 + 30] plus the probe; a window as wide as
		// the store ties the scan and keeps the name.
		{OrgTTLog, "bounded", ttSearch, [3]choice{{TTWindowPushdown, 102}, {TTWindowPushdown, 501}, {TTWindowPushdown, n}}},
		{OrgTTLog, "vt-index", ttSearch, [3]choice{seek, seek, seek}},
		{OrgVTLog, "plain", ttSearch, [3]choice{vtSearch, vtSearch, vtSearch}},
		{OrgVTLog, "bounded", ttSearch, [3]choice{vtSearch, vtSearch, vtSearch}},
		{OrgVTLog, "vt-index", ttSearch, [3]choice{vtSearch, vtSearch, vtSearch}}, // the index ties the order it duplicates
	} {
		a := Access{Org: row.org, N: n}
		caps[row.cap](&a)
		check := func(q Query, want choice, wrapped bool) {
			t.Helper()
			node := Build(a, q)
			leaf := node.Leaf()
			name := fmt.Sprintf("%v/%s/%v[%d,%d)", row.org, row.cap, q.Kind, q.VTLo, q.VTHi)
			if leaf.Kind != want.leaf || leaf.Est != want.est || node.Est != want.est {
				t.Errorf("%s: %v est %d (root est %d), want %v est %d", name, leaf.Kind, leaf.Est, node.Est, want.leaf, want.est)
			}
			if (node.Kind == CurrentState) != wrapped || leaf.Bitemporal != (q.Kind == QAsOf) || !leaf.Bitemporal && leaf.Org != row.org {
				t.Errorf("%s: root %v over a leaf on %v, bitemporal %v", name, node.Kind, leaf.Org, leaf.Bitemporal)
			}
		}
		check(Query{Kind: QCurrent}, scan, true)
		check(Query{Kind: QAsOf, VTLo: 5000, TT: 7000}, scan, false)
		check(Query{Kind: QRollback, TT: 7000}, row.rollback, false)
		for i, q := range vtQueries {
			check(q, row.vt[i], true)
		}
	}
}

// TestBuildKeepsASpecializationThatTies: on a store so small that a search
// costs what a scan does, the declared order still names the strategy.
func TestBuildKeepsASpecializationThatTies(t *testing.T) {
	for n := 0; n <= 2; n++ {
		if got := Build(Access{Org: OrgVTLog, N: n}, Query{Kind: QTimeslice, VTLo: 1, VTHi: 2}).Leaf(); got.Kind != VTBinarySearch || got.Est != n {
			t.Errorf("vt-log of %d: %v est %d", n, got.Kind, got.Est)
		}
		if got := Build(Access{Org: OrgTTLog, N: n}, Query{Kind: QRollback, TT: 1}).Leaf(); got.Kind != TTBinarySearch || got.Est != n {
			t.Errorf("tt-log of %d: %v est %d", n, got.Kind, got.Est)
		}
	}
	// Inverted bounds make an empty window: free, and still the pushdown.
	a := Access{Org: OrgTTLog, N: 100, HasOffsetBounds: true, OffsetLo: 50, OffsetHi: -50}
	if got := Build(a, Query{Kind: QTimeslice, VTLo: 10, VTHi: 11}).Leaf(); got.Kind != TTWindowPushdown || got.Est != 0 {
		t.Errorf("empty pushdown window: %v est %d", got.Kind, got.Est)
	}
}

// TestBuildAggregateChoices pins the row/columnar decision where the
// benchmark's workloads sit: nothing sealed keeps the row engine (the batch
// path would gather every row and fold it too), a sealed vt-ordered log takes
// the columnar scan, a narrow clamp over it goes back to the row engine's
// binary search, and a hint overrides either way.
func TestBuildAggregateChoices(t *testing.T) {
	whole := Query{Kind: QCurrent}
	general := Access{Org: OrgTTLog, N: 20_000}
	sealed := Access{Org: OrgVTLog, N: 100_000, Sealed: 99_840, Runs: 390, HasVTExtent: true, VTMin: 0, VTMax: 1_000_000}
	narrow := Query{Kind: QVTRange, VTLo: 500_000, VTHi: 500_100}
	for _, tc := range []struct {
		name string
		a    Access
		q    Query
		pick EnginePick
		leaf NodeKind
		est  int
	}{
		{"general, whole", general, whole, PickAuto, FullScan, 20_000},
		{"general, forced columnar", general, whole, PickColumnar, ColumnarScan, 2*20_000 + colSetupCost},
		{"sealed vt-log, whole", sealed, whole, PickAuto, ColumnarScan, 99_840/colBatchFactor + 160*colTailFactor + 390 + colSetupCost},
		{"sealed vt-log, forced row", sealed, whole, PickRow, FullScan, 100_000},
		{"sealed vt-log, narrow clamp", sealed, narrow, PickAuto, VTBinarySearch, bsearchCost(100_000)},
	} {
		if got := BuildAggregate(tc.a, tc.q, tc.pick).Leaf(); got.Kind != tc.leaf || got.Est != tc.est {
			t.Errorf("%s: %v est %d, want %v est %d", tc.name, got.Kind, got.Est, tc.leaf, tc.est)
		}
	}
}

// TestMeetsReadsTheFootprint pins Query.Meets at its edges: a time-slice
// meets a change whose inclusive hull holds its instant, a vt-range one
// whose hull overlaps its half-open window, a rollback or as-of a change
// stamped at or before its tt, the current state every change; the change
// of everything meets every query, an instant at the end of the line
// included.
func TestMeetsReadsTheFootprint(t *testing.T) {
	all := [3]int64{math.MinInt64, math.MinInt64, math.MaxInt64}
	for _, c := range []struct {
		q      Query
		change [3]int64 // minTT, vtLo, vtLast
		want   bool
	}{
		{Query{Kind: QCurrent}, [3]int64{900, 5, 5}, true},
		{Query{Kind: QTimeslice, VTLo: 10, VTHi: 11}, [3]int64{0, 10, 10}, true},
		{Query{Kind: QTimeslice, VTLo: 10, VTHi: 11}, [3]int64{0, 0, 9}, false},
		{Query{Kind: QTimeslice, VTLo: 10, VTHi: 11}, [3]int64{0, 11, 20}, false},
		{Query{Kind: QTimeslice, VTLo: math.MaxInt64, VTHi: math.MinInt64}, all, true},
		{Query{Kind: QVTRange, VTLo: 10, VTHi: 20}, [3]int64{0, 19, 40}, true},
		{Query{Kind: QVTRange, VTLo: 10, VTHi: 20}, [3]int64{0, 20, 40}, false},
		{Query{Kind: QVTRange, VTLo: 10, VTHi: 20}, [3]int64{0, 0, 10}, true},
		{Query{Kind: QVTRange, VTLo: 10, VTHi: 20}, [3]int64{0, 0, 9}, false},
		{Query{Kind: QRollback, TT: 50}, [3]int64{50, 0, 0}, true},
		{Query{Kind: QRollback, TT: 50}, [3]int64{51, 0, 0}, false},
		{Query{Kind: QAsOf, VTLo: 7, TT: 50}, [3]int64{51, 7, 7}, false},
		{Query{Kind: QRollback, TT: math.MinInt64}, all, true},
	} {
		if got := c.q.Meets(c.change[0], c.change[1], c.change[2]); got != c.want {
			t.Errorf("%+v meets %v = %v, want %v", c.q, c.change, got, c.want)
		}
	}
}
