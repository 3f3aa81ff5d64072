package relation

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// survivor is the version r holds for e after a removing Vacuum: e itself,
// or an equal copy of it when ApplyLog adopted e (vacuum.go).
func survivor(t *testing.T, r *Relation, e *element.Element) *element.Element {
	t.Helper()
	got, ok := r.ByES(e.ES)
	if !ok || got != e && !reflect.DeepEqual(got, e) {
		t.Fatalf("vacuum moved survivor %v as %v", e, got)
	}
	return got
}

// vacuumFixture: inserts at tt 10,20,30; deletes e1 at 40, e2 at 50.
func vacuumFixture(t *testing.T) (*Relation, []*element.Element) {
	t.Helper()
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	var es []*element.Element
	for i := int64(0); i < 3; i++ {
		e := insertReading(t, r, chronon.Chronon(i), "s", float64(i))
		es = append(es, e)
	}
	if err := r.Delete(es[0].ES); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(es[1].ES); err != nil {
		t.Fatal(err)
	}
	return r, es
}

func TestVacuumDiscardsDeadVersions(t *testing.T) {
	r, es := vacuumFixture(t)
	// Horizon 45: e1 (deleted at 40) is dead; e2 (deleted at 50) survives.
	removed, err := r.Vacuum(45)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.ByES(es[0].ES); ok {
		t.Error("vacuumed element still reachable by surrogate")
	}
	if _, ok := r.ByES(es[1].ES); !ok {
		t.Error("surviving deleted element lost")
	}
	// Current state unchanged.
	cur := r.Current()
	if len(cur) != 1 || cur[0] != es[2] {
		t.Errorf("Current = %v", cur)
	}
	// Rollback at/after the horizon still faithful: at tt=45, e2 and e3
	// were present (e1 already deleted at 40).
	got := r.Rollback(45)
	if len(got) != 2 {
		t.Errorf("Rollback(45) = %d elements, want 2", len(got))
	}
	if !r.CanRollbackTo(45) || r.CanRollbackTo(44) {
		t.Error("CanRollbackTo boundary wrong")
	}
	if r.VacuumHorizon() != 45 {
		t.Errorf("VacuumHorizon = %v", r.VacuumHorizon())
	}
}

func TestVacuumBacklogShrinks(t *testing.T) {
	r, _ := vacuumFixture(t)
	before := len(r.Backlog()) // 3 inserts + 2 deletes
	if before != 5 {
		t.Fatalf("backlog = %d", before)
	}
	if _, err := r.Vacuum(45); err != nil {
		t.Fatal(err)
	}
	// e1's insert and delete records are gone: 3 remain.
	if got := len(r.Backlog()); got != 3 {
		t.Errorf("backlog after vacuum = %d, want 3", got)
	}
	// The surviving backlog still replays.
	replayed, err := Replay(r.Schema(), tx.NewLogicalClock(0, 10), r.Backlog())
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != r.Len() {
		t.Errorf("replayed %d of %d", replayed.Len(), r.Len())
	}
}

func TestVacuumHorizonMonotone(t *testing.T) {
	r, _ := vacuumFixture(t)
	if _, err := r.Vacuum(45); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Vacuum(40); err == nil {
		t.Error("regressing horizon accepted")
	}
	// Re-vacuuming at the same or later horizon is fine.
	if _, err := r.Vacuum(45); err != nil {
		t.Errorf("same-horizon vacuum: %v", err)
	}
	removed, err := r.Vacuum(60)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("second vacuum removed %d, want 1 (e2)", removed)
	}
}

func TestVacuumNothingToDo(t *testing.T) {
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	insertReading(t, r, 1, "s", 1)
	removed, err := r.Vacuum(1000)
	if err != nil || removed != 0 {
		t.Errorf("vacuum of current-only relation: %d, %v", removed, err)
	}
	if r.Len() != 1 {
		t.Error("current element vacuumed")
	}
}

func TestVacuumCleansLifeLines(t *testing.T) {
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	a := insertReading(t, r, 1, "a", 1) // its own object
	b := insertReading(t, r, 2, "b", 2)
	if err := r.Delete(a.ES); err != nil { // tt=30
		t.Fatal(err)
	}
	if _, err := r.Vacuum(35); err != nil {
		t.Fatal(err)
	}
	if got := len(r.LiveObjects()); got != 1 {
		t.Fatalf("LiveObjects = %d, want 1", got)
	}
	if len(r.History(a.OS)) != 0 {
		t.Error("vacuumed life-line still populated")
	}
	if len(r.History(b.OS)) != 1 {
		t.Error("surviving life-line lost")
	}
	if len(r.Partitions()) != 1 {
		t.Error("partitions include vacuumed object")
	}
}

func TestVacuumPreservesChronology(t *testing.T) {
	// After vacuuming, versions must still be tt-sorted so Rollback's
	// binary search stays valid.
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	var live []*element.Element
	for i := int64(0); i < 50; i++ {
		e := insertReading(t, r, chronon.Chronon(i), "s", 1)
		live = append(live, e)
		if i%3 == 2 {
			if err := r.Delete(live[0].ES); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	horizon := r.Clock().Now().Add(-100)
	if _, err := r.Vacuum(horizon); err != nil {
		t.Fatal(err)
	}
	prev := chronon.MinChronon
	for _, e := range r.Versions() {
		if e.TTStart < prev {
			t.Fatal("versions out of tt order after vacuum")
		}
		prev = e.TTStart
	}
	got := r.Rollback(r.Clock().Now())
	if len(got) != len(r.Current()) {
		t.Error("rollback-at-now disagrees with current after vacuum")
	}
}

// TestVacuumCopiesAdoptedSurvivorsOnceTheyAreOutweighed: a vacuum moves a
// version inserted live as it is. A version ApplyLog adopted (it may share
// the arrays of the frame it was decoded from) moves as it is too until
// the adopted versions discarded since the last copy are at least as many
// as the adopted survivors; then the survivors move as equal copies. Every
// backlog record follows its version, and the backlog reads as before
// less the vacuumed records. The copies share nothing: later vacuums move
// them as they are.
func TestVacuumCopiesAdoptedSurvivorsOnceTheyAreOutweighed(t *testing.T) {
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	var live []*element.Element
	for i := 0; i < 3; i++ {
		live = append(live, insertReading(t, r, chronon.Chronon(i), "s", float64(i)))
	}
	es, _ := r.ReservedSurrogates()
	var adopted []*element.Element
	for i := 0; i < 6; i++ {
		el := &element.Element{ES: es + 1 + surrogate.Surrogate(i), OS: 1, VT: element.EventAt(chronon.Chronon(10 + i)),
			Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(float64(i))}}
		if _, _, err := r.ApplyLog(LogRecord{Op: OpInsert, TT: r.Clock().Now(), Elem: el}); err != nil {
			t.Fatal(err)
		}
		adopted = append(adopted, el)
	}
	// closeAll closes the versions and returns the tt they closed at.
	closeAll := func(els ...*element.Element) chronon.Chronon {
		t.Helper()
		tt := r.Clock().Now() + 1
		for _, el := range els {
			if _, _, err := r.ApplyLog(LogRecord{Op: OpDelete, TT: tt, Elem: &element.Element{ES: el.ES}}); err != nil {
				t.Fatal(err)
			}
		}
		return tt
	}
	// vacuum vacuums to the horizon, checks the backlog and reports whether
	// each version in els is the one r holds now (equal to the one it held).
	vacuum := func(horizon chronon.Chronon, n int, els []*element.Element) []bool {
		t.Helper()
		var want []LogRecord
		for _, rec := range r.Backlog() {
			if rec.Elem.TTEnd > horizon {
				want = append(want, rec)
			}
		}
		held := make([]*element.Element, len(els))
		for i, el := range els {
			held[i], _ = r.ByES(el.ES)
		}
		if removed, err := r.Vacuum(horizon); err != nil || removed != n {
			t.Fatalf("Vacuum(%v) = %d, %v; want %d versions removed", horizon, removed, err, n)
		}
		got := r.Backlog()
		if len(got) != len(want) {
			t.Fatalf("backlog holds %d records after the vacuum, want %d", len(got), len(want))
		}
		for i, rec := range got {
			if v, _ := r.ByES(rec.Elem.ES); rec.Elem != v {
				t.Errorf("record %d points at %p, not at its version %p", i, rec.Elem, v)
			}
			if rec.Op != want[i].Op || rec.TT != want[i].TT || !reflect.DeepEqual(rec.Elem, want[i].Elem) {
				t.Errorf("record %d is %v, was %v", i, rec, want[i])
			}
		}
		same := make([]bool, len(held))
		for i, v := range held {
			same[i] = survivor(t, r, v) == v
		}
		return same
	}
	same := func(t *testing.T, when string, got []bool, want ...bool) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: versions kept as they were %v, want %v", when, got, want)
		}
	}

	// One adopted version discarded, five survive: all move as they are.
	same(t, "one of six adopted discarded", vacuum(closeAll(live[0], adopted[1]), 2,
		[]*element.Element{live[1], live[2], adopted[0], adopted[2], adopted[3], adopted[4], adopted[5]}),
		true, true, true, true, true, true, true)
	// Three discarded, three survive, the first of them closed: they move
	// as copies.
	h := closeAll(adopted[2], adopted[3])
	closeAll(adopted[0])
	same(t, "three of six adopted discarded", vacuum(h, 2,
		[]*element.Element{live[1], live[2], adopted[0], adopted[4], adopted[5]}),
		true, true, false, false, false)
	// The copies move as they are from here on.
	same(t, "after the copy", vacuum(closeAll(live[1]), 2,
		[]*element.Element{live[2], adopted[4], adopted[5]}), true, true, true)
}
