package query

import (
	"context"
	"fmt"
	"math"
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
