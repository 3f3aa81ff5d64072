package catalog

// Microbenchmarks for the specialization loop: what one advisor pass
// costs, and what the migrated organization buys on the paper's query
// mix. `make bench-smoke` runs these at -benchtime=100ms; the full
// before/after experiment (per-class storage bytes and latencies) is
// cmd/benchrunner -exp S6.

import (
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
)

// autoSpecEntry builds a relation with n degenerate elements (vt = tt),
// optionally running the advisor so the store has migrated to the
// inferred vt-ordered log before the measurement.
func autoSpecEntry(b *testing.B, n int, specialize bool) (*Catalog, *Entry) {
	b.Helper()
	cfg := testBenchConfig(b)
	c := New(cfg)
	e, err := c.Create(eventSchema("bench"))
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	for i := 1; i <= n; i++ {
		if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(10 * i))}); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	if specialize {
		rep, err := c.AdvisePass(DefaultAdvisorConfig())
		if err != nil {
			b.Fatalf("AdvisePass: %v", err)
		}
		if len(rep.Migrations) != 1 {
			b.Fatalf("advisor migrated %d relations, want 1", len(rep.Migrations))
		}
		if got := e.Physical().Org; got != storage.VTOrdered {
			b.Fatalf("specialized org %v, want %v", got, storage.VTOrdered)
		}
	}
	return c, e
}

func testBenchConfig(b *testing.B) Config {
	cfg := testConfig(b.TempDir())
	return cfg
}

func autoSpecTimeslices(b *testing.B, e *Entry, n int) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt := chronon.Chronon(10 * ((i*7919)%n + 1))
		res, err := timesliceCtx(ctx, e, vt)
		if err != nil {
			b.Fatalf("Timeslice: %v", err)
		}
		if len(res.Elements) == 0 {
			b.Fatalf("timeslice at %d found nothing", vt)
		}
	}
}

// The before/after pair: the same degenerate workload queried on the
// default organization versus the advisor-migrated vt-ordered log.
func BenchmarkAutoSpecializeTimesliceBaseline(b *testing.B) {
	const n = 4096
	_, e := autoSpecEntry(b, n, false)
	autoSpecTimeslices(b, e, n)
}

func BenchmarkAutoSpecializeTimesliceMigrated(b *testing.B) {
	const n = 4096
	_, e := autoSpecEntry(b, n, true)
	autoSpecTimeslices(b, e, n)
}

// BenchmarkAutoSpecializePass prices one advisor sweep over an
// already-settled catalog — the steady-state cost the background loop
// pays per tick (thresholds disabled so every pass really examines).
func BenchmarkAutoSpecializePass(b *testing.B) {
	c, _ := autoSpecEntry(b, 2048, true)
	cfg := AdvisorConfig{} // zero thresholds: always look
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AdvisePass(cfg); err != nil {
			b.Fatalf("AdvisePass: %v", err)
		}
	}
}
