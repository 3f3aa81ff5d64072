package server_test

// End-to-end acceptance for the batch-execution surface: window
// aggregates over the wire report the kernel that folded them, a USING hint
// changes nothing, the conditional-GET select endpoint serves aggregates
// with revalidated ETags (a replay is a 304, a mutation the statement sees
// invalidates), and /metrics exposes the batch-operator counters and books
// every aggregate under its access path.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/constraint"
	"repro/internal/core"
)

func TestAggregateBatchOverTheWire(t *testing.T) {
	ctx := context.Background()
	cli, stop := bootServer(t, t.TempDir())
	defer stop()

	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// vt = 5i for i in [0, 40): two width-100 windows of 20 events each.
	for i := 0; i < 40; i++ {
		if _, err := cli.Insert(ctx, "emp", insertReq(int64(5*i), "w", int64(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	const stmt = "select count(*), sum(salary) from emp group by window(100)"

	// The response names the row kernel, and a USING hint changes nothing.
	def, err := cli.Select(ctx, stmt)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if def.Engine != "row" {
		t.Fatalf("engine = %q, want row", def.Engine)
	}
	if len(def.Rows) != 2 {
		t.Fatalf("%d windows, want 2", len(def.Rows))
	}
	if v := def.Rows[0][2]; v.Kind != "int" || v.Int != 20 {
		t.Fatalf("window [0,100) count = %+v, want 20", v)
	}
	if v := def.Rows[1][3]; v.Kind != "int" || v.Int != 590 {
		t.Fatalf("window [100,200) sum = %+v, want 590", v)
	}
	for _, hint := range []string{" using row", " using columnar"} {
		got, err := cli.Select(ctx, stmt+hint)
		if err != nil || got.Engine != "row" || !reflect.DeepEqual(got.Columns, def.Columns) || !reflect.DeepEqual(got.Rows, def.Rows) {
			t.Fatalf("Select%s: engine %q, err %v, rows %+v", hint, got.Engine, err, got.Rows)
		}
	}

	// EXPLAIN renders the aggregate operator over the access path, and a
	// hint does not show.
	exp, err := cli.ExplainSelect(ctx, "explain "+stmt+" using columnar")
	if err != nil {
		t.Fatalf("ExplainSelect: %v", err)
	}
	if !strings.Contains(exp.Rendered, "window-aggregate count(*), sum(salary) window 100 tumbling") ||
		strings.Contains(exp.Rendered, "using") ||
		exp.Plan.Leaf().Kind != "full-scan" {
		t.Fatalf("EXPLAIN under a hint:\n%s", exp.Rendered)
	}

	// The conditional-GET path: first read returns a body and a validator,
	// a replay is served 304 from the client cache, and a mutation the
	// unclamped statement sees rotates the ETag and recomputes.
	c1, err := cli.SelectCached(ctx, "emp", stmt)
	if err != nil {
		t.Fatalf("SelectCached: %v", err)
	}
	if c1.NotModified || c1.ETag == "" {
		t.Fatalf("first cached read: notModified=%v etag=%q", c1.NotModified, c1.ETag)
	}
	if !reflect.DeepEqual(c1.Rows, def.Rows) {
		t.Fatalf("cached read differs from POST select:\n%+v\n%+v", c1.Rows, def.Rows)
	}
	c2, err := cli.SelectCached(ctx, "emp", stmt)
	if err != nil {
		t.Fatalf("SelectCached replay: %v", err)
	}
	if !c2.NotModified || c2.ETag != c1.ETag {
		t.Fatalf("replay not served 304: notModified=%v etag=%q vs %q", c2.NotModified, c2.ETag, c1.ETag)
	}
	if !reflect.DeepEqual(c2.Rows, c1.Rows) {
		t.Fatal("304 replay lost the cached body")
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(7, "w", 1000)); err != nil {
		t.Fatalf("invalidating insert: %v", err)
	}
	c3, err := cli.SelectCached(ctx, "emp", stmt)
	if err != nil {
		t.Fatalf("SelectCached after insert: %v", err)
	}
	if c3.NotModified || c3.ETag == c1.ETag {
		t.Fatalf("mutation did not rotate the ETag: notModified=%v etag=%q", c3.NotModified, c3.ETag)
	}
	if v := c3.Rows[0][2]; v.Kind != "int" || v.Int != 21 {
		t.Fatalf("post-insert window [0,100) count = %+v, want 21", v)
	}

	// /metrics surfaces the batch-operator counters: the rows folded. Every
	// aggregate booked its access path, never a kernel.
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Batch == nil {
		t.Fatal("metrics missing the batch section after aggregate traffic")
	}
	if m.Batch.Rows < 3*40 {
		t.Fatalf("batch counters = %+v", m.Batch)
	}
	if _, ok := m.Plans["columnar-scan"]; ok || m.Plans["full-scan"].Requests < 4 {
		t.Fatalf("plan metrics: %v", m.Plans)
	}
}

// TestClampedAggregateReportsPrunedChunks: after a clamped USING ROW
// aggregate on the vt-ordered log, /metrics batch.chunks_pruned counts the
// chunks the binary search never reached. 750 events at vt = 5i: two full
// chunks and a tail of 238; the clamp [2600, 3000) lies in the tail, so both
// full chunks are skipped and only the tail is visited.
func TestClampedAggregateReportsPrunedChunks(t *testing.T) {
	ctx := context.Background()
	cli, stop := bootServer(t, t.TempDir())
	defer stop()
	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := cli.Declare(ctx, "emp", mustDescriptor(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()})); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	for from := 0; from < 750; from += 250 {
		reqs := make([]client.InsertRequest, 250)
		for j := range reqs {
			reqs[j] = insertReq(int64(5*(from+j)), "w", int64(from+j))
		}
		if _, err := cli.InsertBatch(ctx, "emp", reqs, true); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Batch != nil {
		t.Fatalf("batch counters before any aggregate: %+v", m.Batch)
	}
	sel, err := cli.Select(ctx, "select count(*), sum(salary) from emp when valid during [2600, 3000) group by window(100) using row")
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.Plan == nil || sel.Plan.Leaf().Kind != "vt-binary-search" {
		t.Fatalf("clamp planned %+v, want the vt-ordered log's binary search", sel.Plan)
	}
	if len(sel.Rows) != 4 || sel.Rows[0][2].Int != 20 || sel.Touched != 238 {
		t.Fatalf("clamped aggregate: %d windows, first %+v, touched %d", len(sel.Rows), sel.Rows[0], sel.Touched)
	}
	if m, err = cli.Metrics(ctx); err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Batch == nil || m.Batch.ChunksPruned != 2 || m.Batch.RunsFolded != 0 {
		t.Fatalf("batch counters %+v, want the 2 full chunks before the clamp pruned and none folded", m.Batch)
	}
}

// TestWholeAggregateReportsMergedGroups: /metrics batch.groups_merged counts
// the partials that stood in for an aligned group of 16 chunks, and
// runs_merged still counts the chunks. 16 full chunks and a tail: the first
// aggregate learns the chunks, an insert empties the result cache, and the
// second builds the group from them and merges it in their place, keeping
// the answer's cells. Another insert reaches the last of its 21 windows, so
// the third folds that window again — chunk 15, which the window cuts,
// merged for it, and the tail — and copies the other 20 (rebuilt,
// windows_refolded, windows_reused).
func TestWholeAggregateReportsMergedGroups(t *testing.T) {
	ctx := context.Background()
	cli, _, stop := bootCachedServer(t, t.TempDir())
	defer stop()
	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 16*256 + 10
	for from := 0; from < n; from += 256 {
		reqs := make([]client.InsertRequest, min(256, n-from))
		for j := range reqs {
			reqs[j] = insertReq(int64(5*(from+j)), "w", int64(from+j))
		}
		if _, err := cli.InsertBatch(ctx, "emp", reqs, true); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
	}
	const stmt = "select count(*) from emp group by window(1000)"
	if _, err := cli.Select(ctx, stmt); err != nil {
		t.Fatalf("Select: %v", err)
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(5*n, "w", n)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	sel, err := cli.Select(ctx, stmt)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(sel.Rows) != 21 || sel.Rows[0][2].Int != 200 || sel.Touched != 11 {
		t.Fatalf("whole aggregate: %d windows, first %+v, touched %d", len(sel.Rows), sel.Rows[0], sel.Touched)
	}
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Batch == nil || m.Batch.GroupsMerged != 1 || m.Batch.RunsMerged != 16 || m.Batch.RunsFolded != 16 || m.Batch.Rebuilt != 0 {
		t.Fatalf("batch counters %+v, want one group of the 16 chunks merged, after they were folded once", m.Batch)
	}
	if _, err := cli.Insert(ctx, "emp", insertReq(5*(n+1), "w", n+1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if sel, err = cli.Select(ctx, stmt); err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(sel.Rows) != 21 || sel.Rows[20][2].Int != 108 || sel.Touched != 12 {
		t.Fatalf("rebuilt aggregate: %d windows, last %+v, touched %d", len(sel.Rows), sel.Rows[20], sel.Touched)
	}
	if m, err = cli.Metrics(ctx); err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if b := m.Batch; b == nil || b.Rebuilt != 1 || b.WindowsRefolded != 1 || b.WindowsReused != 20 || b.GroupsMerged != 1 || b.RunsMerged != 16+1 || b.RunsFolded != 16 {
		t.Fatalf("batch counters %+v, want the last window alone rebuilt, with chunk 15 merged for it", m.Batch)
	}
}
