package catalog

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/tsql"
)

// benchSelect times SelectCtx over a 20 k ledger-shaped relation on org
// (ledgerShaped), with the result cache off, for the statements stmt(i)
// names, parsed outside the timer; rows/op is the rows each answer holds.
func benchSelect(b *testing.B, org storage.Kind, stmt func(i int) string) {
	const n = 20_000
	e, _ := ledgerOf(b, org, n, 0, ledgerInsertion)
	qs := make([]*tsql.Query, 64)
	for i := range qs {
		q, err := tsql.Parse(stmt(i))
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	ctx, rows := context.Background(), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _, err := e.SelectCtx(ctx, qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		rows += len(res.Rows)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkSelectES is the statement tsbench's recovery check sends,
// SELECT es over the whole current state, on the tt-ordered log.
func BenchmarkSelectES(b *testing.B) {
	benchSelect(b, storage.TTOrdered, func(int) string { return "SELECT es FROM ledger" })
}

// BenchmarkSelectValidAt is a WHEN VALID AT on the vt-ordered log, each at
// a different instant: the engine's binary search, then the projection.
func BenchmarkSelectValidAt(b *testing.B) {
	benchSelect(b, storage.VTOrdered, func(i int) string {
		return fmt.Sprintf("SELECT es, v FROM ledger WHEN VALID AT %d", 10*(1+i*313%20_000)+3)
	})
}

// BenchmarkSelectAsOf is a plain AS OF on the tt-ordered log, at the
// transaction time half the ledger was stored by: the engine's as-of scan,
// which ends at the first chunk stored after it.
func BenchmarkSelectAsOf(b *testing.B) {
	benchSelect(b, storage.TTOrdered, func(int) string { return "SELECT es, v FROM ledger AS OF 100000" })
}
