package relation

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

func newEventRelation() *Relation {
	return New(eventSchema(), tx.NewLogicalClock(0, 10))
}

// sameVersion reports whether a and b are one stored version: named by the
// same surrogate and tt⊣, and equal field for field, nil lists told from
// empty ones. The store hands out materialized copies, not the elements it
// was given, so identity is the version's, not the pointer's.
func sameVersion(a, b *element.Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ES == b.ES && a.TTEnd == b.TTEnd && reflect.DeepEqual(*a, *b)
}

func insertReading(t *testing.T, r *Relation, vt chronon.Chronon, sensor string, temp float64) *element.Element {
	t.Helper()
	e, err := r.Insert(Insertion{
		VT:        element.EventAt(vt),
		Invariant: []element.Value{element.String_(sensor)},
		Varying:   []element.Value{element.Float(temp)},
	})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return e
}

func TestNewPanicsOnBadInputs(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid schema should panic")
			}
		}()
		New(Schema{}, tx.NewLogicalClock(0, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil clock should panic")
			}
		}()
		New(eventSchema(), nil)
	}()
}

func TestInsertAssignsStamps(t *testing.T) {
	r := newEventRelation()
	e := insertReading(t, r, 5, "s1", 20.5)
	if e.TTStart != 10 {
		t.Errorf("TTStart = %v, want 10", e.TTStart)
	}
	if !e.Current() {
		t.Error("fresh element should be current")
	}
	if e.ES.IsNone() || e.OS.IsNone() {
		t.Error("surrogates not assigned")
	}
	if vt, _ := e.VT.Event(); vt != 5 {
		t.Errorf("VT = %v, want 5", vt)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	r := newEventRelation()
	// Wrong stamp kind.
	_, err := r.Insert(Insertion{VT: element.SpanOf(0, 5),
		Invariant: []element.Value{element.String_("s")},
		Varying:   []element.Value{element.Float(1)}})
	if !errors.Is(err, ErrWrongStampKind) {
		t.Errorf("wrong-kind insert: %v", err)
	}
	// Wrong arity.
	if _, err := r.Insert(Insertion{VT: element.EventAt(0)}); err == nil {
		t.Error("missing values accepted")
	}
	// Wrong type.
	_, err = r.Insert(Insertion{VT: element.EventAt(0),
		Invariant: []element.Value{element.Int(1)},
		Varying:   []element.Value{element.Float(1)}})
	if err == nil {
		t.Error("type mismatch accepted")
	}
	// Wrong user-time arity.
	_, err = r.Insert(Insertion{VT: element.EventAt(0),
		Invariant: []element.Value{element.String_("s")},
		Varying:   []element.Value{element.Float(1)},
		UserTimes: []chronon.Chronon{1}})
	if err == nil {
		t.Error("extra user times accepted")
	}
	if r.Len() != 0 {
		t.Error("failed inserts must not modify the relation")
	}
}

func TestObjectSurrogateReuse(t *testing.T) {
	r := newEventRelation()
	e1 := insertReading(t, r, 1, "s1", 1)
	e2, err := r.Insert(Insertion{Object: e1.OS,
		VT:        element.EventAt(2),
		Invariant: []element.Value{element.String_("s1")},
		Varying:   []element.Value{element.Float(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if e1.OS != e2.OS {
		t.Error("object surrogate not reused")
	}
	if e1.ES == e2.ES {
		t.Error("element surrogates must differ")
	}
	if got := len(r.History(e1.OS)); got != 2 {
		t.Errorf("History has %d elements, want 2", got)
	}
	if got := len(r.Objects()); got != 1 {
		t.Errorf("Objects = %d, want 1", got)
	}
}

func TestDelete(t *testing.T) {
	r := newEventRelation()
	e := insertReading(t, r, 1, "s1", 1)
	if err := r.Delete(e.ES); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Deletion is copy-on-close: the caller's pointer stays open (pinned
	// snapshots rely on that); the relation now holds the closed clone.
	if !e.Current() {
		t.Error("caller's element mutated by delete; copy-on-close broken")
	}
	live, ok := r.ByES(e.ES)
	if !ok {
		t.Fatal("deleted element vanished from byES")
	}
	if live.Current() {
		t.Error("deleted element still current")
	}
	if live.TTEnd != 20 {
		t.Errorf("TTEnd = %v, want 20", live.TTEnd)
	}
	if err := r.Delete(e.ES); !errors.Is(err, ErrAlreadyDeleted) {
		t.Errorf("double delete: %v", err)
	}
	if err := r.Delete(surrogate.Surrogate(999)); !errors.Is(err, ErrNoSuchElement) {
		t.Errorf("missing delete: %v", err)
	}
}

func TestModify(t *testing.T) {
	r := newEventRelation()
	e := insertReading(t, r, 1, "s1", 1)
	repl, err := r.Modify(e.ES, element.EventAt(2), []element.Value{element.Float(9)})
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	// The paper: modification = logical delete + insert with fresh element
	// surrogate, both at the same transaction time. The close lands on a
	// clone (copy-on-close); observe it through the relation.
	old, _ := r.ByES(e.ES)
	if old.Current() {
		t.Error("modified-away element still current")
	}
	if !repl.Current() {
		t.Error("replacement not current")
	}
	if repl.ES == e.ES {
		t.Error("replacement must have a fresh element surrogate")
	}
	if repl.OS != e.OS {
		t.Error("replacement must keep the object surrogate")
	}
	if old.TTEnd != repl.TTStart {
		t.Errorf("delete tt %v != insert tt %v", old.TTEnd, repl.TTStart)
	}
	if s, _ := repl.Invariant[0].Str(); s != "s1" {
		t.Error("replacement lost time-invariant values")
	}
	if v, _ := repl.Varying[0].FloatVal(); v != 9 {
		t.Error("replacement has wrong varying value")
	}

	if _, err := r.Modify(e.ES, element.EventAt(3), repl.Varying); !errors.Is(err, ErrAlreadyDeleted) {
		t.Errorf("modify of deleted element: %v", err)
	}
	if _, err := r.Modify(surrogate.Surrogate(999), element.EventAt(3), repl.Varying); !errors.Is(err, ErrNoSuchElement) {
		t.Errorf("modify of missing element: %v", err)
	}
}

func TestCurrentAndRollback(t *testing.T) {
	r := newEventRelation()
	e1 := insertReading(t, r, 1, "s1", 1)   // tt=10
	e2 := insertReading(t, r, 2, "s2", 2)   // tt=20
	if err := r.Delete(e1.ES); err != nil { // tt=30
		t.Fatal(err)
	}
	e3 := insertReading(t, r, 3, "s3", 3) // tt=40
	e1, _ = r.ByES(e1.ES)                 // the closed clone the relation now holds

	cur := r.Current()
	if len(cur) != 2 || !sameVersion(cur[0], e2) || !sameVersion(cur[1], e3) {
		t.Errorf("Current = %v", cur)
	}

	cases := []struct {
		tt   chronon.Chronon
		want []*element.Element
	}{
		{5, nil},
		{10, []*element.Element{e1}},
		{20, []*element.Element{e1, e2}},
		{29, []*element.Element{e1, e2}},
		{30, []*element.Element{e2}},
		{40, []*element.Element{e2, e3}},
		{1 << 40, []*element.Element{e2, e3}},
	}
	for _, c := range cases {
		got := r.Rollback(c.tt)
		if len(got) != len(c.want) {
			t.Errorf("Rollback(%v) = %d elements, want %d", c.tt, len(got), len(c.want))
			continue
		}
		for i := range got {
			if !sameVersion(got[i], c.want[i]) {
				t.Errorf("Rollback(%v)[%d] = %v, want %v", c.tt, i, got[i], c.want[i])
			}
		}
	}
}

func TestTimeslice(t *testing.T) {
	r := New(intervalSchema(), tx.NewLogicalClock(0, 10))
	mk := func(start, end chronon.Chronon, emp, proj string) *element.Element {
		e, err := r.Insert(Insertion{
			VT:        element.SpanOf(start, end),
			Invariant: []element.Value{element.String_(emp)},
			Varying:   []element.Value{element.String_(proj)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk(0, 100, "ann", "p1")
	e2 := mk(100, 200, "ann", "p2")
	_ = e2
	got := r.Timeslice(50)
	if len(got) != 1 || !sameVersion(got[0], e1) {
		t.Errorf("Timeslice(50) = %v", got)
	}
	got = r.Timeslice(100)
	if len(got) != 1 || !sameVersion(got[0], e2) {
		t.Errorf("Timeslice(100) = %v", got)
	}
	if got := r.Timeslice(250); len(got) != 0 {
		t.Errorf("Timeslice(250) = %v", got)
	}
	// After deletion, timeslice no longer sees the element...
	if err := r.Delete(e1.ES); err != nil {
		t.Fatal(err)
	}
	if got := r.Timeslice(50); len(got) != 0 {
		t.Errorf("Timeslice(50) after delete = %v", got)
	}
	// ...but the bitemporal query at an earlier transaction time does
	// (answered by the closed clone that replaced e1 on delete).
	e1, _ = r.ByES(e1.ES)
	got = r.TimesliceAsOf(50, e1.TTStart)
	if len(got) != 1 || !sameVersion(got[0], e1) {
		t.Errorf("TimesliceAsOf = %v", got)
	}
}

func TestBacklogOrder(t *testing.T) {
	r := newEventRelation()
	e1 := insertReading(t, r, 1, "s1", 1)
	insertReading(t, r, 2, "s2", 2)
	if err := r.Delete(e1.ES); err != nil {
		t.Fatal(err)
	}
	log := r.Backlog()
	if len(log) != 3 {
		t.Fatalf("backlog has %d records", len(log))
	}
	wantOps := []Op{OpInsert, OpInsert, OpDelete}
	prev := chronon.MinChronon
	for i, rec := range log {
		if rec.Op != wantOps[i] {
			t.Errorf("log[%d].Op = %v, want %v", i, rec.Op, wantOps[i])
		}
		if rec.TT <= prev {
			t.Errorf("backlog not in tt order at %d", i)
		}
		prev = rec.TT
	}
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Error("Op names wrong")
	}
}

func TestGranularityQuantization(t *testing.T) {
	s := eventSchema()
	s.Granularity = chronon.Minute
	r := New(s, tx.NewLogicalClock(0, 60))
	e, err := r.Insert(Insertion{
		VT:        element.EventAt(125),
		Invariant: []element.Value{element.String_("s")},
		Varying:   []element.Value{element.Float(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vt, _ := e.VT.Event(); vt != 120 {
		t.Errorf("quantized VT = %v, want 120", vt)
	}

	is := intervalSchema()
	is.Granularity = chronon.Minute
	ri := New(is, tx.NewLogicalClock(0, 60))
	e2, err := ri.Insert(Insertion{
		VT:        element.SpanOf(61, 119), // collapses to one tick
		Invariant: []element.Value{element.String_("e")},
		Varying:   []element.Value{element.String_("p")},
	})
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := e2.VT.Interval()
	if iv.Start != 60 || iv.End != 120 {
		t.Errorf("quantized interval = %v, want [60, 120)", iv)
	}
}

func TestPartitions(t *testing.T) {
	r := newEventRelation()
	a := insertReading(t, r, 1, "s1", 1)
	insertReading(t, r, 2, "s2", 2)
	b, err := r.Insert(Insertion{Object: a.OS,
		VT:        element.EventAt(3),
		Invariant: []element.Value{element.String_("s1")},
		Varying:   []element.Value{element.Float(3)}})
	if err != nil {
		t.Fatal(err)
	}
	parts := r.Partitions()
	if len(parts) != 2 {
		t.Fatalf("got %d partitions, want 2", len(parts))
	}
	if got := parts[a.OS]; len(got) != 2 || !sameVersion(got[0], a) || !sameVersion(got[1], b) {
		t.Errorf("partition of %v = %v", a.OS, got)
	}
}

func TestByES(t *testing.T) {
	r := newEventRelation()
	e := insertReading(t, r, 1, "s1", 1)
	if got, ok := r.ByES(e.ES); !ok || !sameVersion(got, e) {
		t.Error("ByES failed")
	}
	if _, ok := r.ByES(surrogate.Surrogate(999)); ok {
		t.Error("ByES found a ghost")
	}
}

// rejectGuard rejects everything, for testing guard plumbing.
type rejectGuard struct{ err error }

func (g rejectGuard) CheckInsert(*Relation, *element.Element) error { return g.err }
func (g rejectGuard) CheckDelete(*Relation, *element.Element, chronon.Chronon) error {
	return g.err
}
func (g rejectGuard) Applied(*Relation, Op, *element.Element, chronon.Chronon) {}

// countGuard counts Applied callbacks.
type countGuard struct{ inserts, deletes int }

func (g *countGuard) CheckInsert(*Relation, *element.Element) error { return nil }
func (g *countGuard) CheckDelete(*Relation, *element.Element, chronon.Chronon) error {
	return nil
}
func (g *countGuard) Applied(_ *Relation, op Op, _ *element.Element, _ chronon.Chronon) {
	if op == OpInsert {
		g.inserts++
	} else {
		g.deletes++
	}
}

func TestGuardRejection(t *testing.T) {
	r := newEventRelation()
	sentinel := errors.New("nope")
	r.AddGuard(rejectGuard{err: sentinel})
	_, err := r.Insert(Insertion{
		VT:        element.EventAt(1),
		Invariant: []element.Value{element.String_("s")},
		Varying:   []element.Value{element.Float(1)},
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("guarded insert: %v", err)
	}
	if r.Len() != 0 {
		t.Error("rejected insert modified the relation")
	}
}

func TestGuardAppliedCallbacks(t *testing.T) {
	r := newEventRelation()
	g := &countGuard{}
	r.AddGuard(g)
	e := insertReading(t, r, 1, "s1", 1)
	if _, err := r.Modify(e.ES, element.EventAt(2), []element.Value{element.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if g.inserts != 2 || g.deletes != 1 {
		t.Errorf("Applied counts = %d inserts, %d deletes; want 2, 1", g.inserts, g.deletes)
	}
}

func TestGuardRejectionOnDeleteLeavesElementCurrent(t *testing.T) {
	r := newEventRelation()
	e := insertReading(t, r, 1, "s1", 1)
	sentinel := errors.New("no deletes")
	r.AddGuard(rejectGuard{err: sentinel})
	if err := r.Delete(e.ES); !errors.Is(err, sentinel) {
		t.Errorf("guarded delete: %v", err)
	}
	if !e.Current() {
		t.Error("rejected delete changed the element")
	}
}

// TestCommitDropsTheLabelItBreaks: a committed element is never refused by
// the store it lands in. On a store labelled vt-ordered, an insert before
// the last valid time (in transaction-time order still) drops the label one
// step, to tt-ordered, and is stored last, where ByES finds it.
func TestCommitDropsTheLabelItBreaks(t *testing.T) {
	r := newEventRelation()
	insertReading(t, r, 10, "s1", 1)
	insertReading(t, r, 20, "s1", 2)
	if err := r.Store().Retype(storage.VTOrdered); err != nil {
		t.Fatal(err)
	}
	e := insertReading(t, r, 5, "s1", 3)
	if k := r.Store().Kind(); k != storage.TTOrdered {
		t.Fatalf("label %v after an out-of-vt-order commit, want %v", k, storage.TTOrdered)
	}
	if r.Len() != 3 || !sameVersion(r.Store().At(2), e) {
		t.Fatalf("the element is not stored last: %d versions", r.Len())
	}
	if got, ok := r.ByES(e.ES); !ok || !sameVersion(got, e) {
		t.Fatalf("ByES(%v) = %v, %v", e.ES, got, ok)
	}
}

// TestEmptyListsReadBackNil: the store keeps a list's length and nothing
// else, as the wire and the disk do, so the relation normalizes an empty
// list to nil where a version enters it — a live insert, a modify's
// replacement values, a replayed record — and every way of reading the
// versions back, from one chunk, gives the normalized versions.
func TestEmptyListsReadBackNil(t *testing.T) {
	r := New(Schema{Name: "bare", ValidTime: element.EventStamp, Granularity: chronon.Second}, tx.NewLogicalClock(0, 10))
	var want []*element.Element
	add := func(e *element.Element, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if e.Invariant != nil || e.Varying != nil || e.UserTimes != nil {
			t.Fatalf("version %v kept an empty list: %#v %#v %#v", e.ES, e.Invariant, e.Varying, e.UserTimes)
		}
		want = append(want, e)
	}
	add(r.Insert(Insertion{VT: element.EventAt(1), Invariant: []element.Value{}, Varying: []element.Value{}, UserTimes: []chronon.Chronon{}}))
	add(r.Insert(Insertion{VT: element.EventAt(2)}))
	es, _ := r.ReservedSurrogates()
	_, now, err := r.ApplyLog(LogRecord{Op: OpInsert, TT: r.Clock().Next(), Elem: &element.Element{ES: es + 1, OS: 1, VT: element.EventAt(3),
		Invariant: []element.Value{}, Varying: []element.Value{}, UserTimes: []chronon.Chronon{}}})
	add(now, err)
	add(r.Modify(want[1].ES, element.EventAt(4), []element.Value{}))
	want[1], _ = r.ByES(want[1].ES) // closed by the modify
	if r.Len() != len(want) || r.Len() > storage.ChunkSize {
		t.Fatalf("%d versions, want %d in one chunk", r.Len(), len(want))
	}
	for i, got := range r.Versions() {
		if !sameVersion(got, want[i]) {
			t.Errorf("version %d reads %#v, want %#v", i, got, want[i])
		}
		if e, ok := r.ByES(got.ES); !ok || !sameVersion(e, want[i]) {
			t.Errorf("ByES(%v) = %#v, want %#v", got.ES, e, want[i])
		}
	}
}

// TestVersionTooLargeIsRefused: a version whose strings hold more than
// storage.MaxStringBytes — what one write-ahead-log frame may hold — is
// refused with ErrVersionTooLarge, insert and modify alike, before anything
// is stamped; one at the bound is stored.
func TestVersionTooLargeIsRefused(t *testing.T) {
	r := New(Schema{Name: "docs", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []Column{{Name: "title", Type: element.KindString}},
		Varying:   []Column{{Name: "body", Type: element.KindString}}}, tx.NewLogicalClock(0, 10))
	big := strings.Repeat("x", storage.MaxStringBytes-1)
	e, err := r.Insert(Insertion{VT: element.EventAt(1), Invariant: []element.Value{element.String_("t")}, Varying: []element.Value{element.String_(big)}})
	if err != nil {
		t.Fatalf("a version of %d string bytes: %v", storage.MaxStringBytes, err)
	}
	stamped := r.Clock().Now()
	if _, err := r.Insert(Insertion{VT: element.EventAt(2), Invariant: []element.Value{element.String_("tt")}, Varying: []element.Value{element.String_(big)}}); !errors.Is(err, ErrVersionTooLarge) {
		t.Fatalf("insert of %d string bytes: %v", storage.MaxStringBytes+1, err)
	}
	if _, err := r.Modify(e.ES, element.EventAt(3), []element.Value{element.String_(big + "yy")}); !errors.Is(err, ErrVersionTooLarge) {
		t.Fatalf("modify to %d string bytes: %v", storage.MaxStringBytes+2, err)
	}
	if r.Len() != 1 || r.Clock().Now() != stamped || len(r.Current()) != 1 {
		t.Fatalf("the refusals changed the relation: %d versions, clock %v (was %v)", r.Len(), r.Clock().Now(), stamped)
	}
}
