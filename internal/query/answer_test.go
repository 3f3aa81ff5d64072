package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/refmodel"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// sameAnswer fails t unless got holds the versions of want, in want's
// order.
func sameAnswer(t *testing.T, what string, got, want []*element.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, the definition %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ES != want[i].ES || got[i].TTEnd != want[i].TTEnd {
			t.Fatalf("%s: answer %d is ES %v, the definition's ES %v", what, i, got[i].ES, want[i].ES)
		}
	}
}

// TestAsOfIsTheDefinition holds Engine.Answer on plan.QAsOf to
// refmodel.AsOf and VTRangeAsOf on every label: an as-of query selects by
// transaction time as well as by valid time — at an instant, over a window
// — and a plain AS OF by transaction time alone. One current event, valid
// at 5 and stored at 10: at the instant 5 as of 20 it is there, over
// [0, 10) as of 0 it is not yet stored.
func TestAsOfIsTheDefinition(t *testing.T) {
	el := &element.Element{ES: 1, OS: 1, TTStart: 10, TTEnd: chronon.Forever, VT: element.EventAt(5)}
	flat := []*element.Element{el}
	for _, st := range []*storage.RunStore{storage.NewHeap(), storage.NewTTLog(), storage.NewVTLog()} {
		if err := st.Insert(el); err != nil {
			t.Fatal(err)
		}
		en := New(st, nil)
		for _, c := range []struct {
			name string
			q    plan.Query
			want []*element.Element
		}{
			{"valid at 5 as of 20", plan.Query{Kind: plan.QAsOf, VTLo: 5, TT: 20}, refmodel.AsOf(flat, 5, 20)},
			{"valid during [0, 10) as of 0", plan.Query{Kind: plan.QAsOf, VTLo: 0, VTHi: 10, TT: 0}, refmodel.VTRangeAsOf(flat, 0, 10, 0)},
			{"valid during [0, 10) as of 20", plan.Query{Kind: plan.QAsOf, VTLo: 0, VTHi: 10, TT: 20}, refmodel.VTRangeAsOf(flat, 0, 10, 20)},
			{"valid at 5 as of 9", plan.Query{Kind: plan.QAsOf, VTLo: 5, VTHi: 6, TT: 9}, refmodel.AsOf(flat, 5, 9)},
			{"valid at 6 as of 20", plan.Query{Kind: plan.QAsOf, VTLo: 6, VTHi: 7, TT: 20}, refmodel.AsOf(flat, 6, 20)},
			{"plain as of 10", plan.Query{Kind: plan.QAsOf, TT: 10}, refmodel.Rollback(flat, 10)},
			{"plain as of 9", plan.Query{Kind: plan.QAsOf, TT: 9}, refmodel.Rollback(flat, 9)},
		} {
			a, node, _, err := en.Answer(context.Background(), c.q)
			if err != nil {
				t.Fatal(err)
			}
			if !node.Leaf().Bitemporal {
				t.Fatalf("%v, %s: planned %s", st.Kind(), c.name, node)
			}
			sameAnswer(t, fmt.Sprintf("%v, %s", st.Kind(), c.name), a.Elements(), c.want)
		}
	}
}

// TestTimesliceAtTheEndOfTheLine: a time-slice is read by its instant, so
// an event stamped at math.MaxInt64 is found at its own chronon — through
// the engine (its Timeslice, and Answer on the wrapped window [vt, vt+1)
// the server builds) and through the store, on every label, under a
// declared bound's tt-window pushdown and on the indexed store too. So is
// one at MaxChronon and one past it, and one at MinChronon.
func TestTimesliceAtTheEndOfTheLine(t *testing.T) {
	stamps := []chronon.Chronon{chronon.MinChronon, 0, 5, chronon.MaxChronon, chronon.MaxChronon + 7, math.MaxInt64}
	var flat []*element.Element
	for i, vt := range stamps {
		flat = append(flat, &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever, VT: element.EventAt(vt)})
	}
	type store interface {
		storage.Store
		Timeslice(chronon.Chronon) ([]*element.Element, int)
	}
	bounded := storage.NewTTLog()
	for name, st := range map[string]store{
		"heap": storage.NewHeap(), "tt-ordered log": storage.NewTTLog(), "vt-ordered log": storage.NewVTLog(),
		"bounded tt-ordered log": bounded, "indexed heap": storage.NewIndexedEvent(),
	} {
		for _, e := range flat {
			if err := st.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		en := New(st, nil)
		if st == bounded { // every stored vt − tt lies inside the bound
			if err := en.UseVTOffsetBounds(int64(chronon.MinChronon)-100, math.MaxInt64); err != nil {
				t.Fatal(err)
			}
			if leaf := en.Plan(plan.Query{Kind: plan.QTimeslice, VTLo: math.MaxInt64}).Leaf(); leaf.Kind != plan.TTWindowPushdown {
				t.Fatalf("%s: planned %v", name, leaf.Kind)
			}
		}
		for _, vt := range stamps {
			want := refmodel.Timeslice(flat, vt)
			sameAnswer(t, fmt.Sprintf("%s: engine time-slice at %d", name, vt), en.Timeslice(vt).Elements, want)
			a, _, _, err := en.Answer(context.Background(), plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1})
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("%s: answer at %d", name, vt), a.Elements(), want)
			got, _ := st.Timeslice(vt)
			sameAnswer(t, fmt.Sprintf("%s: store time-slice at %d", name, vt), got, want)
			a, _, _, err = en.Answer(context.Background(), plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), VTHi: int64(vt) + 1, TT: 100})
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("%s: as-of at %d", name, vt), a.Elements(), refmodel.AsOf(flat, vt, 100))
		}
	}
}

// TestIndexSeekIsTheDefinition holds the indexed store's seek, through the
// engine, to refmodel.Timeslice and VTRange over the stored versions, in
// arrival order: over shuffled and repeated valid times and stamps at both
// ends of the time line, after closes through Replace and through ReplaceAt,
// with a caller that hands every insert the same element struct, on the live
// store and on a snapshot pinned between two rounds of writes.
func TestIndexSeekIsTheDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ends := []chronon.Chronon{chronon.MinChronon, chronon.MaxChronon, math.MaxInt64}
	st := storage.NewIndexedEvent()
	var flat []*element.Element // what was stored, in arrival order, as the test records it
	var e element.Element       // the caller's one struct, written over for every insert
	e.Invariant = make([]element.Value, 1)
	insert := func(n int) {
		for range n {
			i := len(flat)
			vt := chronon.Chronon(rng.Intn(300) - 50)
			if rng.Intn(16) == 0 {
				vt = ends[rng.Intn(len(ends))]
			}
			e.ES, e.OS, e.TTStart, e.TTEnd, e.VT = surrogate.Surrogate(i+1), surrogate.Surrogate(i%7+1), chronon.Chronon(10*(i+1)), chronon.Forever, element.EventAt(vt)
			e.Invariant[0] = element.Int(int64(i))
			if err := st.Insert(&e); err != nil {
				t.Fatal(err)
			}
			flat = append(flat, e.Clone())
		}
	}
	closeSome := func(n int) {
		for range n {
			i := rng.Intn(len(flat))
			if !flat[i].Current() {
				continue
			}
			closed := flat[i].Clone()
			closed.TTEnd = chronon.Chronon(10*len(flat) + 5)
			if i%2 == 0 {
				st.Replace(flat[i], closed)
			} else {
				st.ReplaceAt(i, closed)
			}
			flat[i] = closed
		}
	}
	same := func(what string, got, want []*element.Element) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, the definition %d", what, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.ES != w.ES || g.TTEnd != w.TTEnd || g.VT != w.VT || !g.Invariant[0].Equal(w.Invariant[0]) {
				t.Fatalf("%s: answer %d is ES %v vt %v tt⊣ %v, the definition's ES %v vt %v tt⊣ %v", what, i, g.ES, g.VT, g.TTEnd, w.ES, w.VT, w.TTEnd)
			}
		}
	}
	check := func(name string, view storage.Store, record []*element.Element) {
		t.Helper()
		stored := storage.Elements(view)
		same(name+": stored versions", stored, record)
		en := New(view, nil)
		answer := func(q plan.Query) []*element.Element {
			t.Helper()
			a, node, _, err := en.Answer(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if leaf := node.Leaf().Kind; leaf != plan.BTreeIndexSeek {
				t.Fatalf("%s: %v planned %v", name, q, leaf)
			}
			return a.Elements()
		}
		probes := append([]chronon.Chronon{-51, 250}, ends...)
		for range 40 {
			probes = append(probes, record[rng.Intn(len(record))].VT.Start())
		}
		for _, vt := range probes {
			same(fmt.Sprintf("%s: time-slice at %d", name, vt),
				answer(plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1}), refmodel.Timeslice(stored, vt))
		}
		windows := [][2]chronon.Chronon{{chronon.MinChronon, 0}, {0, chronon.MaxChronon}, {chronon.MaxChronon, math.MaxInt64}, {chronon.MinChronon, math.MaxInt64}}
		for range 40 {
			lo := chronon.Chronon(rng.Intn(350) - 60)
			windows = append(windows, [2]chronon.Chronon{lo, lo + chronon.Chronon(rng.Intn(120))})
		}
		for _, w := range windows {
			same(fmt.Sprintf("%s: range [%d, %d)", name, w[0], w[1]),
				answer(plan.Query{Kind: plan.QVTRange, VTLo: int64(w[0]), VTHi: int64(w[1])}), refmodel.VTRange(stored, w[0], w[1]))
		}
	}

	insert(600)
	closeSome(80)
	check("live", st, flat)
	snap, pinned := st.Snapshot(), slices.Clone(flat)
	check("snapshot", snap, pinned)
	insert(300)
	closeSome(120)
	check("live after more writes", st, flat)
	check("snapshot after more writes", snap, pinned)
}
