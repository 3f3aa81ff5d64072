package temporalspec_test

import (
	"strings"
	"testing"

	ts "repro"
)

// TestEndToEndMonitoring drives the whole public API the way a downstream
// user would: declare a schema with specializations, run transactions, see
// violations rejected, classify the extension, get storage advice, and
// query through the engine.
func TestEndToEndMonitoring(t *testing.T) {
	schema := ts.Schema{
		Name:        "plant",
		ValidTime:   ts.EventStamp,
		Granularity: ts.Second,
		Invariant:   []ts.Column{{Name: "sensor", Type: ts.KindString}},
		Varying:     []ts.Column{{Name: "celsius", Type: ts.KindFloat}},
	}
	r := ts.NewRelation(schema, ts.NewLogicalClock(ts.Date(1992, 2, 3), 60))

	delayed, err := ts.DelayedRetroactiveSpec(ts.Seconds(30))
	if err != nil {
		t.Fatal(err)
	}
	ts.Declare(r, ts.PerRelation,
		ts.EventConstraint{Spec: delayed},
		ts.InterEventConstraint{Spec: ts.SequentialEventsSpec()},
	)

	base := ts.Date(1992, 2, 3)
	// Three good samples, each valid 45 s before its storage time.
	for i := int64(1); i <= 3; i++ {
		_, err := r.Insert(ts.Insertion{
			VT:        ts.EventAt(base.Add(i*60 - 45)),
			Invariant: []ts.Value{ts.String("r1")},
			Varying:   []ts.Value{ts.Float(21.5)},
		})
		if err != nil {
			t.Fatalf("sample %d rejected: %v", i, err)
		}
	}
	// A sample arriving too fast (delay 10 s < 30 s) is rejected.
	if _, err := r.Insert(ts.Insertion{
		VT:        ts.EventAt(base.Add(4*60 - 10)),
		Invariant: []ts.Value{ts.String("r1")},
		Varying:   []ts.Value{ts.Float(22)},
	}); err == nil {
		t.Fatal("under-delayed sample accepted")
	}

	rep := ts.Classify(r.Versions(), ts.TTInsertion, ts.Second)
	if !rep.Has(ts.DelayedRetroactive) || !rep.Has(ts.GloballySequentialEvents) {
		t.Errorf("classification missing expected classes: %v", rep.Findings)
	}

	advice := ts.Advise(rep.Classes(), ts.EventStamp)
	if advice.Store != ts.VTOrderedStore {
		t.Errorf("advice = %v, want vt-ordered", advice.Store)
	}

	en, _, err := ts.EngineForRelation(r, rep.Classes())
	if err != nil {
		t.Fatal(err)
	}
	res := en.Timeslice(base.Add(60 - 45))
	if len(res.Elements) != 1 {
		t.Fatalf("timeslice found %d elements", len(res.Elements))
	}
	if !strings.Contains(res.Node.String(), "binary search") {
		t.Errorf("plan = %q", res.Node.String())
	}
}

func TestPublicTaxonomyQueries(t *testing.T) {
	if !ts.IsSpecializationOf(ts.Degenerate, ts.Retroactive) {
		t.Error("degenerate should specialize retroactive")
	}
	c := ts.EnumerateRegions()
	if c.Specializations() != 11 {
		t.Errorf("completeness = %d, want 11", c.Specializations())
	}
	if got := ts.MostSpecificClasses([]ts.Class{ts.General, ts.Retroactive}); len(got) != 1 || got[0] != ts.Retroactive {
		t.Errorf("MostSpecificClasses = %v", got)
	}
	if out := ts.RenderLattice(ts.CategoryIsolatedEvent); !strings.Contains(out, "degenerate") {
		t.Error("lattice render incomplete")
	}
	if out := ts.RenderRegion(ts.RetroactiveSpec(), 5); !strings.Contains(out, "#") {
		t.Error("region render empty")
	}
}

func TestPublicAllenAlgebra(t *testing.T) {
	a := ts.MakeInterval(0, 10)
	b := ts.MakeInterval(10, 20)
	if ts.Relate(a, b) != ts.Meets {
		t.Error("Relate wrong")
	}
	if got := ts.Compose(ts.Meets, ts.Meets); !got.Has(ts.Before) || got.Len() != 1 {
		t.Errorf("Compose = %v", got)
	}
	if len(ts.AllenRelations()) != 13 {
		t.Error("relation count wrong")
	}
}

func TestPublicTimeDomain(t *testing.T) {
	d, err := ts.ParseDuration("1mo2d")
	if err != nil || d != ts.Months(1).Plus(ts.Days(2)) {
		t.Errorf("ParseDuration = %v, %v", d, err)
	}
	if ts.GCD(28, 6) != 2 {
		t.Error("GCD wrong")
	}
	cv, err := ts.ParseCivil("1992-02-29")
	if err != nil || cv.Chronon() != ts.Date(1992, 2, 29) {
		t.Errorf("ParseCivil = %v, %v", cv, err)
	}
	g, err := ts.ParseGranularity("minute")
	if err != nil || g != ts.Minute {
		t.Errorf("ParseGranularity = %v, %v", g, err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	r, err := ts.MonitoringWorkload(ts.WorkloadConfig{Seed: 1, N: 20})
	if err != nil || r.Len() != 20 {
		t.Fatalf("monitoring workload: %v, len %d", err, r.Len())
	}
	stamps := ts.EventStampsWorkload(ts.Retroactive, ts.WorkloadConfig{Seed: 1, N: 10})
	if len(stamps) != 10 {
		t.Error("stamp workload wrong size")
	}
	inner, outer := ts.WorkloadBounds()
	if inner.IsZero() || outer.IsZero() {
		t.Error("workload bounds zero")
	}
}

func TestPublicDeterminedMapping(t *testing.T) {
	schema := ts.Schema{Name: "deposits", ValidTime: ts.EventStamp, Granularity: ts.Second}
	r := ts.NewRelation(schema, ts.NewLogicalClock(ts.DateTime(1992, 1, 1, 15, 0, 0), 3600))
	// Deposits valid from the next 8:00 a.m. (mapping m3).
	ts.Declare(r, ts.PerRelation, ts.DeterminedConstraint{
		Spec: ts.DeterminedSpec{M: ts.M3(), Base: ts.PredictiveSpec()},
	})
	// tt = 16:00 ⇒ vt must be next day 08:00.
	if _, err := r.Insert(ts.Insertion{VT: ts.EventAt(ts.DateTime(1992, 1, 2, 8, 0, 0))}); err != nil {
		t.Fatalf("determined deposit rejected: %v", err)
	}
	if _, err := r.Insert(ts.Insertion{VT: ts.EventAt(ts.DateTime(1992, 1, 2, 9, 0, 0))}); err == nil {
		t.Fatal("mis-mapped deposit accepted")
	}
}

func TestPublicBacklogPersistence(t *testing.T) {
	r, err := ts.MonitoringWorkload(ts.WorkloadConfig{Seed: 3, N: 50})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/plant.tsbl"
	if err := ts.SaveBacklog(path, r); err != nil {
		t.Fatal(err)
	}
	restored, err := ts.LoadBacklog(path, ts.NewLogicalClock(0, 360))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != r.Len() {
		t.Fatalf("restored %d of %d elements", restored.Len(), r.Len())
	}
	// The restored relation classifies identically.
	a := ts.Classify(r.Versions(), ts.TTInsertion, ts.Second)
	b := ts.Classify(restored.Versions(), ts.TTInsertion, ts.Second)
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("classification drift: %d vs %d findings", len(a.Findings), len(b.Findings))
	}
}

func TestPublicTemporalQuery(t *testing.T) {
	r, err := ts.PayrollWorkload(ts.WorkloadConfig{Seed: 4, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.RunQuery(
		"select id, value from payroll where value > 3000",
		func(string) (*ts.Relation, bool) { return r, true })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) == 30 {
		t.Errorf("predicate did not filter: %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		v, _ := row[1].FloatVal()
		if v <= 3000 {
			t.Errorf("row violates predicate: %v", v)
		}
	}
	q, err := ts.ParseQuery("select * from payroll as of 100 when valid at 200")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.EvalQuery(q, r); err != nil {
		t.Fatal(err)
	}
	if res.Format() == "" {
		t.Error("empty format")
	}
}
