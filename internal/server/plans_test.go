package server_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/tx"
)

// bootWithCatalog serves a fresh catalog with the result cache on and hands
// back the catalog too, for tests that reach past the wire.
func bootWithCatalog(t *testing.T) (*client.Client, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(catalog.Config{
		Dir:        t.TempDir(),
		NewClock:   func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		CacheBytes: 1 << 20,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	ts := httptest.NewServer(server.New(server.Config{Catalog: cat}).Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := cat.Close(); err != nil {
			t.Errorf("catalog.Close: %v", err)
		}
	})
	cli := client.New(ts.URL)
	if _, err := cli.Create(context.Background(), empSchema()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, vt := range []int64{5, 15, 25} {
		if _, err := cli.Insert(context.Background(), "emp", insertReq(vt, "w", int64(1000*(i+1)))); err != nil {
			t.Fatalf("insert vt=%d: %v", vt, err)
		}
	}
	return cli, cat
}

// TestExplainDoesNotWaitOnWriters: planning reads the published view and the
// published physical design, so both EXPLAIN forms answer while a writer
// holds the relation's exclusive lock.
func TestExplainDoesNotWaitOnWriters(t *testing.T) {
	cli, cat := bootWithCatalog(t)
	e, err := cat.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_ = e.Locked().Exclusive(func(*relation.Relation) error {
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	defer func() {
		close(release)
		<-done
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	exp, err := cli.ExplainSelect(ctx, "EXPLAIN SELECT * FROM emp WHEN VALID AT 15")
	if err != nil || exp.Store != "tt-ordered log" || exp.StoreSource == "" {
		t.Fatalf("EXPLAIN SELECT beside a writer: %+v, %v", exp, err)
	}
	exp, err = cli.Explain(ctx, "emp", client.QueryRequest{Kind: client.QueryTimeslice, VT: 15})
	if err != nil || exp.Store != "tt-ordered log" || exp.Plan.Leaf().Kind != "full-scan" {
		t.Fatalf("explain endpoint beside a writer: %+v, %v", exp, err)
	}
}

// TestPlanMetricsBookACacheHitAtZero: /metrics plans is the entries' own
// account, which books a result-cache hit as a request that touched nothing —
// for an element read and for an aggregate alike.
func TestPlanMetricsBookACacheHitAtZero(t *testing.T) {
	cli, _ := bootWithCatalog(t)
	ctx := context.Background()
	scan := func() client.PlanMetrics {
		t.Helper()
		m, err := cli.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		return m.Plans["full-scan"]
	}
	for _, run := range []func() (int, error){
		func() (int, error) {
			res, err := cli.Query(ctx, "emp", client.QueryRequest{Kind: client.QueryTimeslice, VT: 15})
			return res.Touched, err
		},
		func() (int, error) {
			res, err := cli.Select(ctx, "select count(*) from emp group by window(10)")
			return res.Touched, err
		},
	} {
		before := scan()
		touched, err := run()
		if err != nil || touched != 3 {
			t.Fatalf("first run: touched %d, %v", touched, err)
		}
		first := scan()
		if first.Requests != before.Requests+1 || first.Touched != before.Touched+3 {
			t.Fatalf("first run booked %+v over %+v", first, before)
		}
		if touched, err := run(); err != nil || touched != 3 {
			t.Fatalf("cache hit: touched %d, %v", touched, err)
		}
		if hit := scan(); hit.Requests != first.Requests+1 || hit.Touched != first.Touched {
			t.Fatalf("cache hit booked %+v over %+v; want one request and nothing touched", hit, first)
		}
	}
	// An answer rebuilt from kept cells books the rows it folded. After a
	// write the tumbling statement is asked again — a repeat, whose whole
	// loop keeps its cells — and a cumulative one over them folds none.
	if _, err := cli.Insert(ctx, "emp", insertReq(35, "w", 4000)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res, err := cli.Select(ctx, "select count(*) from emp group by window(10)"); err != nil || res.Touched != 4 {
		t.Fatalf("after a write: touched %d, %v", res.Touched, err)
	}
	before := scan()
	res, err := cli.Select(ctx, "select count(*) from emp group by window(10, cumulative)")
	if err != nil || res.Touched != 0 {
		t.Fatalf("rebuilt from the kept cells: touched %d, %v", res.Touched, err)
	}
	if got := scan(); got.Requests != before.Requests+1 || got.Touched != before.Touched {
		t.Fatalf("rebuilt answer booked %+v over %+v; want one request and nothing touched", got, before)
	}
}
