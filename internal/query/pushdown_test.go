package query

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// boundedFixture builds n event elements with vt − tt uniformly inside
// [lo, hi], plus a heap for ground truth.
func boundedFixture(t *testing.T, n int, lo, hi int64, seed int64) (*storage.RunStore, *storage.RunStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tlog := storage.NewTTLog()
	heap := storage.NewHeap()
	for i := 0; i < n; i++ {
		tt := chronon.Chronon(int64(i+1) * 10)
		off := lo + rng.Int63n(hi-lo+1)
		e := &element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.EventAt(tt.Add(off)),
		}
		if err := tlog.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := heap.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return tlog, heap
}

func TestBoundedPushdownCorrect(t *testing.T) {
	const n = 5000
	lo, hi := int64(-300), int64(-30) // delayed strongly retroactively bounded
	tlog, heap := boundedFixture(t, n, lo, hi, 42)
	en := New(tlog, nil)
	en.UseVTOffsetBounds(lo, hi)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		q := chronon.Chronon(rng.Int63n(int64(n)*10 + 1000))
		got := en.Timeslice(q)
		want, _ := heap.Timeslice(q)
		if !sameSet(got.Elements, want) {
			t.Fatalf("timeslice(%v): pushdown %d vs heap %d elements", q, len(got.Elements), len(want))
		}
		if !strings.Contains(got.Node.String(), "bounded specialization") {
			t.Fatalf("plan = %q", got.Node.String())
		}
		if got.Touched > int(hi-lo)/10+3 {
			t.Fatalf("touched %d exceeds the window size", got.Touched)
		}
		// Range queries too.
		span := chronon.Chronon(rng.Int63n(500) + 1)
		gotR := en.VTRange(q, q+span)
		wantR, _ := heap.VTRange(q, q+span)
		if !sameSet(gotR.Elements, wantR) {
			t.Fatalf("range(%v, %v): pushdown %d vs heap %d", q, q+span, len(gotR.Elements), len(wantR))
		}
	}
}

func TestBoundedPushdownSeesDeletions(t *testing.T) {
	tlog, _ := boundedFixture(t, 100, -50, 0, 1)
	en := New(tlog, nil)
	en.UseVTOffsetBounds(-50, 0)
	var victim *element.Element
	tlog.Scan(func(e *element.Element) bool { victim = e; return false })
	vt := victim.VT.Start()
	found := func() bool {
		for _, e := range en.Timeslice(vt).Elements {
			if e.ES == victim.ES {
				return true
			}
		}
		return false
	}
	if !found() {
		t.Fatal("element not found before deletion")
	}
	closed := *victim
	closed.TTEnd = victim.TTStart.Add(1)
	tlog.Replace(victim, &closed)
	if found() {
		t.Fatal("deleted element visible through pushdown")
	}
}

func TestBoundedPushdownOnlyOnTTLog(t *testing.T) {
	heap := storage.NewHeap()
	en := New(heap, nil)
	en.UseVTOffsetBounds(-10, 0)
	e := &element.Element{ES: 1, OS: 1, TTStart: 10, TTEnd: chronon.Forever, VT: element.EventAt(5)}
	if err := heap.Insert(e); err != nil {
		t.Fatal(err)
	}
	res := en.Timeslice(5)
	if strings.Contains(res.Node.String(), "bounded") {
		t.Errorf("pushdown used on a heap: %q", res.Node.String())
	}
	if len(res.Elements) != 1 {
		t.Errorf("heap fallback lost the element")
	}
}

func TestUseVTOffsetBoundsValidation(t *testing.T) {
	en := New(storage.NewTTLog(), nil)
	err := en.UseVTOffsetBounds(5, -5)
	if err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if !strings.Contains(err.Error(), "inverted offset bounds") {
		t.Errorf("error = %q, want it to name the inverted bounds", err)
	}
	// Inverted bounds must not arm the pushdown.
	if a := en.Access(); a.HasOffsetBounds {
		t.Error("inverted bounds armed the pushdown")
	}
	if err := en.UseVTOffsetBounds(-5, 5); err != nil {
		t.Fatalf("valid bounds refused: %v", err)
	}
	if a := en.Access(); !a.HasOffsetBounds || a.OffsetLo != -5 || a.OffsetHi != 5 {
		t.Errorf("Access() = %+v after valid bounds", en.Access())
	}
}

// sameSet reports whether a and b hold the same versions: a version is named
// by its surrogate and tt⊣ — a sealed chunk hands out materialized copies,
// not the elements it was given — and the two must be equal field for field.
func sameSet(a, b []*element.Element) bool {
	if len(a) != len(b) {
		return false
	}
	type name struct {
		es surrogate.Surrogate
		tt chronon.Chronon
	}
	seen := make(map[name]*element.Element, len(a))
	for _, e := range a {
		seen[name{e.ES, e.TTEnd}] = e
	}
	for _, e := range b {
		if s, ok := seen[name{e.ES, e.TTEnd}]; !ok || !reflect.DeepEqual(*s, *e) {
			return false
		}
	}
	return true
}

func TestCoreOffsetBounds(t *testing.T) {
	spec, err := core.DelayedStronglyRetroactivelyBoundedSpec(chronon.Seconds(30), chronon.Seconds(300))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := spec.OffsetBounds()
	if !ok || lo != -300 || hi != -30 {
		t.Errorf("OffsetBounds = %d, %d, %v", lo, hi, ok)
	}
	if _, _, ok := core.RetroactiveSpec().OffsetBounds(); ok {
		t.Error("one-sided spec reported bounds")
	}
	cal, err := core.StronglyBoundedSpec(chronon.Months(1), chronon.Months(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cal.OffsetBounds(); ok {
		t.Error("calendric spec reported fixed bounds")
	}
	deg, err := core.DegenerateSpec(chronon.Minute)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok = deg.OffsetBounds()
	if !ok || lo != -59 || hi != 59 {
		t.Errorf("degenerate bounds = %d, %d, %v", lo, hi, ok)
	}
}
