package query

import (
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
)

func sequentialRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r := relation.New(relation.Schema{
		Name:        "temps",
		ValidTime:   element.EventStamp,
		Granularity: chronon.Second,
		Varying:     []relation.Column{{Name: "celsius", Type: element.KindFloat}},
	}, tx.NewLogicalClock(0, 10))
	constraint.Attach(r, constraint.PerRelation,
		constraint.InterEvent{Spec: core.SequentialEventsSpec()})
	for i := 0; i < n; i++ {
		// tt = 10(i+1), vt = tt − 5: sequential and retroactive.
		if _, err := r.Insert(relation.Insertion{
			VT:      element.EventAt(chronon.Chronon(10*(i+1) - 5)),
			Varying: []element.Value{element.Float(float64(i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestForRelationPicksAdvisedStore(t *testing.T) {
	r := sequentialRelation(t, 100)
	en, advice, err := ForRelation(r, []core.Class{core.GloballySequentialEvents})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Store != storage.VTOrdered {
		t.Errorf("advice = %v, want vt-ordered", advice.Store)
	}
	if en.Store().Kind() != storage.VTOrdered {
		t.Errorf("engine store = %v", en.Store().Kind())
	}
	gen, _, err := ForRelation(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Store().Kind() != storage.TTOrdered {
		t.Errorf("general store = %v", gen.Store().Kind())
	}
}

func TestTimeslicePlansAndAgreement(t *testing.T) {
	r := sequentialRelation(t, 200)
	spec, general := enginePair(t, r)

	for _, vt := range []int64{5, 995, 1995, 3000} {
		rs := spec.Timeslice(chronon.Chronon(vt))
		rg := general.Timeslice(chronon.Chronon(vt))
		if len(rs.Elements) != len(rg.Elements) {
			t.Errorf("timeslice(%d): specialized %d vs general %d elements",
				vt, len(rs.Elements), len(rg.Elements))
		}
		if !strings.Contains(rs.Node.String(), "binary search") {
			t.Errorf("specialized plan = %q", rs.Node.String())
		}
		if !strings.Contains(rg.Node.String(), "full scan") {
			t.Errorf("general plan = %q", rg.Node.String())
		}
		if rs.Touched >= rg.Touched {
			t.Errorf("timeslice(%d): specialized touched %d ≥ general %d",
				vt, rs.Touched, rg.Touched)
		}
	}
}

func enginePair(t *testing.T, r *relation.Relation) (spec, general *Engine) {
	t.Helper()
	spec, _, err := ForRelation(r, []core.Class{core.GloballySequentialEvents})
	if err != nil {
		t.Fatal(err)
	}
	// The general engine deliberately ignores the specialization: it
	// models the same data stored without the declaration. Heap is the
	// honest baseline for vt queries.
	heap := storage.NewHeap()
	for _, e := range r.Versions() {
		if err := heap.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return spec, New(heap, nil)
}

func TestVTRange(t *testing.T) {
	r := sequentialRelation(t, 100)
	spec, general := enginePair(t, r)
	rs := spec.VTRange(100, 200)
	rg := general.VTRange(100, 200)
	if len(rs.Elements) != len(rg.Elements) {
		t.Errorf("range: %d vs %d elements", len(rs.Elements), len(rg.Elements))
	}
	if len(rs.Elements) == 0 {
		t.Error("range returned nothing")
	}
	if rs.Touched >= rg.Touched {
		t.Errorf("range: specialized touched %d ≥ general %d", rs.Touched, rg.Touched)
	}
}

func TestRollback(t *testing.T) {
	r := sequentialRelation(t, 100)
	spec, general := enginePair(t, r)
	rs := spec.Rollback(500)
	rg := general.Rollback(500)
	if len(rs.Elements) != len(rg.Elements) || len(rs.Elements) != 50 {
		t.Errorf("rollback: %d vs %d elements, want 50", len(rs.Elements), len(rg.Elements))
	}
	if rs.Touched > rg.Touched {
		t.Errorf("rollback: specialized touched %d > general %d", rs.Touched, rg.Touched)
	}
}

func TestCurrent(t *testing.T) {
	r := sequentialRelation(t, 10)
	en, _, err := ForRelation(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := en.Current()
	if len(res.Elements) != 10 || res.Touched != 10 {
		t.Errorf("current = %d elements, touched %d", len(res.Elements), res.Touched)
	}
}

func TestForRelationLoadFailure(t *testing.T) {
	// A relation whose extension is NOT non-decreasing, loaded with a
	// (false) sequential declaration: the vt-ordered store must refuse.
	r := relation.New(relation.Schema{
		Name:        "x",
		ValidTime:   element.EventStamp,
		Granularity: chronon.Second,
	}, tx.NewLogicalClock(0, 10))
	for _, vt := range []int64{100, 50} {
		if _, err := r.Insert(relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ForRelation(r, []core.Class{core.GloballySequentialEvents}); err == nil {
		t.Error("false declaration loaded successfully")
	}
}

func TestQueryAfterDeletion(t *testing.T) {
	r := sequentialRelation(t, 20)
	victim := r.Current()[3]
	if err := r.Delete(victim.ES); err != nil {
		t.Fatal(err)
	}
	en, _, err := ForRelation(r, []core.Class{core.GloballySequentialEvents})
	if err != nil {
		t.Fatal(err)
	}
	vt, _ := victim.VT.Event()
	if res := en.Timeslice(vt); len(res.Elements) != 0 {
		t.Error("deleted element visible in timeslice")
	}
	if res := en.Rollback(victim.TTStart); len(res.Elements) != 4 {
		t.Errorf("rollback before deletion sees %d elements, want 4", len(res.Elements))
	}
}
