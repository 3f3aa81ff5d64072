package relation

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// survivor is the version r holds for e after a removing Vacuum: an equal
// copy of e, read out of the store's columns.
func survivor(t *testing.T, r *Relation, e *element.Element) *element.Element {
	t.Helper()
	got, ok := r.ByES(e.ES)
	if !ok || !reflect.DeepEqual(got, e) {
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
	if len(cur) != 1 || !sameVersion(cur[0], es[2]) {
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

// TestStoreKeepsNoAppliedElement: the store copies each version it is
// handed into its columns and keeps nothing of it. Versions ApplyLog is
// handed off a batch frame share the frame's element and value arrays
// (backlog.Slab); once they are applied the arrays are unreachable, though
// every version survives, and a vacuum after closes moves the survivors as
// they are: the backlog reads as before less the vacuumed records.
func TestStoreKeepsNoAppliedElement(t *testing.T) {
	r := New(eventSchema(), tx.NewLogicalClock(0, 10))
	var freed atomic.Int32
	func() {
		els, vals := make([]element.Element, 6), make([]element.Value, 12) // the frame's two arrays
		runtime.SetFinalizer(&els[0], func(*element.Element) { freed.Add(1) })
		runtime.SetFinalizer(&vals[0], func(*element.Value) { freed.Add(1) })
		for i := range els {
			vals[2*i], vals[2*i+1] = element.String_("s"), element.Float(float64(i))
			els[i] = element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, VT: element.EventAt(chronon.Chronon(10 + i)),
				Invariant: vals[2*i : 2*i+1 : 2*i+1], Varying: vals[2*i+1 : 2*i+2 : 2*i+2]}
			if _, _, err := r.ApplyLog(LogRecord{Op: OpInsert, TT: r.Clock().Now(), Elem: &els[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}()
	// The value array is reachable from the element array until the
	// latter's finalizer has run: a few cycles.
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the frame's two arrays became unreachable once applied", freed.Load())
		}
		runtime.GC()
	}
	tt := r.Clock().Now() + 1
	for _, es := range []surrogate.Surrogate{2, 4} {
		if _, _, err := r.ApplyLog(LogRecord{Op: OpDelete, TT: tt, Elem: &element.Element{ES: es}}); err != nil {
			t.Fatal(err)
		}
	}
	var want []LogRecord
	for _, rec := range r.Backlog() {
		if rec.Elem.TTEnd > tt {
			want = append(want, rec)
		}
	}
	if removed, err := r.Vacuum(tt); err != nil || removed != 2 {
		t.Fatalf("Vacuum(%v) = %d, %v; want 2 versions removed", tt, removed, err)
	}
	if got := r.Backlog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("backlog after the vacuum\n %v\nwant\n %v", got, want)
	}
}
