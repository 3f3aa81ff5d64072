package storage

import (
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/surrogate"
)

var esCounter uint64

func ev(tt, vt int64) *element.Element {
	esCounter++
	return &element.Element{
		ES: surrogate.Surrogate(esCounter), OS: 1,
		TTStart: chronon.Chronon(tt), TTEnd: chronon.Forever,
		VT: element.EventAt(chronon.Chronon(vt)),
	}
}

func iv(tt, vs, ve int64) *element.Element {
	esCounter++
	return &element.Element{
		ES: surrogate.Surrogate(esCounter), OS: 1,
		TTStart: chronon.Chronon(tt), TTEnd: chronon.Forever,
		VT: element.SpanOf(chronon.Chronon(vs), chronon.Chronon(ve)),
	}
}

func fill(t *testing.T, s Store, es ...*element.Element) {
	t.Helper()
	for _, e := range es {
		if err := s.Insert(e); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func ids(es []*element.Element) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = uint64(e.ES)
	}
	return out
}

func sameElems(a, b []*element.Element) bool {
	if len(a) != len(b) {
		return false
	}
	// The same versions, as a multiset: an answer on the vt-ordered log is a
	// copy, so a version is known by its surrogate and tt⊣, and its fields.
	type version struct {
		es surrogate.Surrogate
		tt chronon.Chronon
	}
	seen := make(map[version][]*element.Element)
	for _, e := range a {
		k := version{e.ES, e.TTEnd}
		seen[k] = append(seen[k], e)
	}
	for _, e := range b {
		k := version{e.ES, e.TTEnd}
		if len(seen[k]) == 0 || !sameVersion(seen[k][0], e) {
			return false
		}
		seen[k] = seen[k][1:]
	}
	return true
}

func TestStoresAgreeOnResults(t *testing.T) {
	// A sequential event workload: all three stores must return identical
	// answers; only the touched counts differ.
	build := func() []*element.Element {
		var es []*element.Element
		for i := int64(0); i < 100; i++ {
			es = append(es, ev(100+i*10, 95+i*10))
		}
		return es
	}
	heap, ttlog, vtlog := NewHeap(), NewTTLog(), NewVTLog()
	for _, e := range build() {
		if err := heap.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	fill(t, ttlog, Elements(heap)...)
	for _, e := range Elements(heap) {
		if err := vtlog.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Mark a few deleted.
	heap.At(10).TTEnd = 500
	heap.At(50).TTEnd = 800

	queries := []int64{0, 95, 95 + 37*10, 95 + 99*10, 5000}
	for _, q := range queries {
		hRes, hTouched := heap.Timeslice(chronon.Chronon(q))
		tRes, _ := ttlog.Timeslice(chronon.Chronon(q))
		vRes, vTouched := vtlog.Timeslice(chronon.Chronon(q))
		if !sameElems(hRes, tRes) || !sameElems(hRes, vRes) {
			t.Errorf("timeslice(%d) disagrees: heap=%v tt=%v vt=%v", q, ids(hRes), ids(tRes), ids(vRes))
		}
		if hTouched != 100 {
			t.Errorf("heap touched %d, want full scan", hTouched)
		}
		if vTouched > 5 {
			t.Errorf("vt log touched %d for a point query", vTouched)
		}
	}
	for _, q := range []int64{0, 100, 550, 2000} {
		hRes, hTouched := heap.Rollback(chronon.Chronon(q))
		tRes, tTouched := ttlog.Rollback(chronon.Chronon(q))
		vRes, _ := vtlog.Rollback(chronon.Chronon(q))
		if !sameElems(hRes, tRes) || !sameElems(hRes, vRes) {
			t.Errorf("rollback(%d) disagrees", q)
		}
		if tTouched > hTouched {
			t.Errorf("tt log touched %d > heap %d", tTouched, hTouched)
		}
	}
}

func TestVTRangeOnOrderedStore(t *testing.T) {
	vtlog := NewVTLog()
	for i := int64(0); i < 50; i++ {
		if err := vtlog.Insert(ev(i*10, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	got, touched := vtlog.VTRange(100, 150)
	if len(got) != 5 {
		t.Errorf("range returned %d elements, want 5 (%v)", len(got), ids(got))
	}
	if touched > 8 {
		t.Errorf("range touched %d, want near answer size", touched)
	}
	heap := NewHeap()
	fill(t, heap, Elements(vtlog)...)
	hGot, hTouched := heap.VTRange(100, 150)
	if !sameElems(got, hGot) {
		t.Error("heap and vt log disagree on range")
	}
	if hTouched != 50 {
		t.Errorf("heap touched %d, want 50", hTouched)
	}
}

func TestVTLogIntervalTimeslice(t *testing.T) {
	// Sequential (contiguous) shifts: starts and ends both non-decreasing.
	vtlog := NewVTLog()
	for i := int64(0); i < 20; i++ {
		if err := vtlog.Insert(iv(100+i*10, i*8, (i+1)*8)); err != nil {
			t.Fatal(err)
		}
	}
	got, touched := vtlog.Timeslice(43)
	if len(got) != 1 {
		t.Fatalf("timeslice returned %d elements (%v)", len(got), ids(got))
	}
	if iv, _ := got[0].VT.Interval(); !iv.Contains(43) {
		t.Errorf("wrong interval %v", iv)
	}
	if touched > 4 {
		t.Errorf("touched %d", touched)
	}
	// Out of range.
	if got, _ := vtlog.Timeslice(500); len(got) != 0 {
		t.Errorf("timeslice(500) = %v", ids(got))
	}
}

func TestVTLogRejectsDisorder(t *testing.T) {
	vtlog := NewVTLog()
	if err := vtlog.Insert(ev(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := vtlog.Insert(ev(110, 90)); err == nil {
		t.Error("vt disorder accepted")
	}
	if err := vtlog.Insert(ev(90, 200)); err == nil {
		t.Error("tt disorder accepted")
	}
	// Ordered starts are not enough for intervals: the valid-time search
	// finds the first element reaching past a bound by its end. A history
	// whose ends fall back cannot take the label either.
	ivlog := NewVTLog()
	if err := ivlog.Insert(iv(100, 10, 500)); err != nil {
		t.Fatal(err)
	}
	if err := ivlog.Insert(iv(110, 20, 30)); err == nil {
		t.Error("an interval ending before its predecessor accepted")
	}
	ttlog := NewTTLog()
	for _, e := range []*element.Element{iv(100, 10, 500), iv(110, 20, 30)} {
		if err := ttlog.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ttlog.Retype(VTOrdered); err == nil || ttlog.Kind() != TTOrdered {
		t.Errorf("Retype to the vt-ordered label over falling ends: %v, now %v", err, ttlog.Kind())
	}
}

func TestTTLogRejectsDisorder(t *testing.T) {
	ttlog := NewTTLog()
	if err := ttlog.Insert(ev(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ttlog.Insert(ev(90, 0)); err == nil {
		t.Error("tt disorder accepted")
	}
}

func TestScanEarlyStop(t *testing.T) {
	for _, s := range []Store{NewHeap(), NewTTLog(), NewVTLog()} {
		for i := int64(0); i < 10; i++ {
			if err := s.Insert(ev(i, i)); err != nil {
				t.Fatal(err)
			}
		}
		count := 0
		touched := s.Scan(func(*element.Element) bool {
			count++
			return count < 3
		})
		if touched != 3 || count != 3 {
			t.Errorf("%v: early stop touched %d, visited %d", s.Kind(), touched, count)
		}
		if s.Len() != 10 {
			t.Errorf("%v: Len = %d", s.Kind(), s.Len())
		}
	}
}

func TestKindStrings(t *testing.T) {
	if Heap.String() != "heap" || TTOrdered.String() != "tt-ordered log" || VTOrdered.String() != "vt-ordered log" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Error("fallback name wrong")
	}
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("unknown"); err == nil {
		t.Error("ParseKind accepted the unknown token")
	}
	if _, err := ParseKind("b-tree forest"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

func TestAdvise(t *testing.T) {
	cases := []struct {
		name    string
		classes []core.Class
		stamp   element.TimestampKind
		want    Kind
	}{
		{"degenerate", []core.Class{core.Degenerate}, element.EventStamp, VTOrdered},
		{"sequential events", []core.Class{core.GloballySequentialEvents}, element.EventStamp, VTOrdered},
		{"non-decreasing events", []core.Class{core.GloballyNonDecreasingEvents}, element.EventStamp, VTOrdered},
		{"sequential intervals", []core.Class{core.GloballySequentialIntervals}, element.IntervalStamp, VTOrdered},
		{"non-decreasing intervals only", []core.Class{core.GloballyNonDecreasingIntervals}, element.IntervalStamp, TTOrdered},
		{"retroactive only", []core.Class{core.Retroactive}, element.EventStamp, TTOrdered},
		{"general", nil, element.EventStamp, TTOrdered},
	}
	for _, c := range cases {
		a := Advise(c.classes, c.stamp)
		if a.Store != c.want {
			t.Errorf("%s: advised %v, want %v", c.name, a.Store, c.want)
		}
		if len(a.Reasons) == 0 {
			t.Errorf("%s: no reasons given", c.name)
		}
		if a.New().Kind() != c.want {
			t.Errorf("%s: New built wrong store", c.name)
		}
	}
}

func TestAdviseClosesOverAncestors(t *testing.T) {
	// Declaring degenerate implies sequential (C5); the advisor must treat
	// the declaration set as closed under generalization.
	a := Advise([]core.Class{core.Degenerate}, element.EventStamp)
	if a.Store != VTOrdered {
		t.Errorf("degenerate advice = %v", a.Store)
	}
}

func TestAdviceNewHeapDefault(t *testing.T) {
	if (Advice{Store: Heap}).New().Kind() != Heap {
		t.Error("heap advice built wrong store")
	}
}

func TestAdviseMentionsPushdownForBoundedClasses(t *testing.T) {
	a := Advise([]core.Class{core.DelayedStronglyRetroactivelyBounded}, element.EventStamp)
	if a.Store != TTOrdered {
		t.Fatalf("store = %v", a.Store)
	}
	found := false
	for _, r := range a.Reasons {
		if strings.Contains(r, "pushdown") {
			found = true
		}
	}
	if !found {
		t.Errorf("bounded class advice lacks pushdown hint: %v", a.Reasons)
	}
	// An unbounded class gets no such hint.
	b := Advise([]core.Class{core.Retroactive}, element.EventStamp)
	for _, r := range b.Reasons {
		if strings.Contains(r, "pushdown") {
			t.Errorf("unbounded class advice mentions pushdown")
		}
	}
}
