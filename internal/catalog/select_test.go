package catalog

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/interval"
	"repro/internal/plan"
	"repro/internal/refmodel"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
)

// The ends of the line every leg of the selection tests reaches: a valid
// time there is stored where the label allows it and asked for on every
// label.
var lineEnds = []int64{int64(chronon.MinChronon), int64(chronon.MaxChronon), int64(chronon.MaxChronon) + 7, math.MaxInt64}

// selectLeg is one relation of the selection tests: a label and a stamp
// kind, and vtAt, the valid time of insertion i of n, made after the one
// stamped at transaction time tt.
type selectLeg struct {
	name    string
	stamp   element.TimestampKind
	label   storage.Kind
	prepare func(t *testing.T, e *Entry)
	bounded bool
	vtAt    func(rng *rand.Rand, i, n int, tt int64) element.Timestamp
}

// selectBound is the bounded leg's declared |vt − tt|.
const selectBound = 500

func selectLegs() []selectLeg {
	events := func(rng *rand.Rand, _, _ int, _ int64) element.Timestamp {
		if rng.Intn(8) == 0 {
			return element.EventAt(chronon.Chronon(lineEnds[rng.Intn(len(lineEnds))]))
		}
		return element.EventAt(chronon.Chronon(rng.Int63n(2000)))
	}
	// Non-decreasing events from MinChronon to the end of the line.
	nonDecreasing := func(_ *rand.Rand, i, n int, _ int64) element.Timestamp {
		switch {
		case i < 3:
			return element.EventAt(chronon.MinChronon)
		case i >= n-3:
			return element.EventAt(chronon.Chronon(lineEnds[i-n+len(lineEnds)]))
		}
		return element.EventAt(chronon.Chronon(i + i/3))
	}
	bounded := func(rng *rand.Rand, _, _ int, tt int64) element.Timestamp {
		return element.EventAt(chronon.Chronon(tt - selectBound/2 + rng.Int63n(selectBound)))
	}
	intervals := func(rng *rand.Rand, _, _ int, _ int64) element.Timestamp {
		switch rng.Intn(16) {
		case 0:
			return element.SpanOf(chronon.MinChronon, chronon.MinChronon+5)
		case 1:
			return element.SpanOf(chronon.MaxChronon-3, chronon.MaxChronon+3)
		case 2:
			return element.SpanOf(chronon.MaxChronon, math.MaxInt64)
		}
		lo := rng.Int63n(2000)
		return element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+1+rng.Int63n(300)))
	}
	// Sequential intervals on the insertion basis: each begins at or after
	// the transaction time before it and ends before its own, which the
	// logical clock puts ten chronons on.
	sequential := func(rng *rand.Rand, _, _ int, tt int64) element.Timestamp {
		lo := tt + rng.Int63n(3)
		return element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+1+rng.Int63n(7)))
	}
	declare := func(c constraint.Constraint) func(t *testing.T, e *Entry) {
		return func(t *testing.T, e *Entry) {
			t.Helper()
			if err := e.Declare([]constraint.Descriptor{mustDescribe(t, c, constraint.PerRelation)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func(t *testing.T, e *Entry) { onTheHeap(t, e) }
	bound, err := core.StronglyBoundedSpec(chronon.Seconds(selectBound), chronon.Seconds(selectBound))
	if err != nil {
		panic(err)
	}
	return []selectLeg{
		{name: "heap, events", stamp: element.EventStamp, label: storage.Heap, prepare: heap, vtAt: events},
		{name: "heap, intervals", stamp: element.IntervalStamp, label: storage.Heap, prepare: heap, vtAt: intervals},
		{name: "tt-ordered log, events", stamp: element.EventStamp, label: storage.TTOrdered, vtAt: events},
		{name: "tt-ordered log, intervals", stamp: element.IntervalStamp, label: storage.TTOrdered, vtAt: intervals},
		{name: "bounded tt-ordered log, events", stamp: element.EventStamp, label: storage.TTOrdered, bounded: true,
			prepare: declare(constraint.Event{Spec: bound}), vtAt: bounded},
		{name: "vt-ordered log, events", stamp: element.EventStamp, label: storage.VTOrdered,
			prepare: declare(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}), vtAt: nonDecreasing},
		{name: "vt-ordered log, intervals", stamp: element.IntervalStamp, label: storage.VTOrdered,
			prepare: declare(constraint.InterInterval{Spec: core.SequentialIntervalsSpec()}), vtAt: sequential},
	}
}

// grow creates the leg's relation and fills it: n insertions, the first
// two thirds before the returned pinned view is taken, with deletes
// sprinkled over both halves so closed versions sit in sealed chunks.
func (l selectLeg) grow(t *testing.T, c *Catalog, rng *rand.Rand, n int) (*Entry, *readView) {
	t.Helper()
	e, err := c.Create(relation.Schema{
		Name: "r", ValidTime: l.stamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.prepare != nil {
		l.prepare(t, e)
	}
	var pinned *readView
	var live []surrogate.Surrogate
	tt := int64(0)
	for i := 0; i < n; i++ {
		if i == 2*n/3 {
			pinned = e.view.Load()
		}
		vt := l.vtAt(rng, i, n, tt)
		el, err := insert(e, relation.Insertion{VT: vt, Varying: []element.Value{element.Int(rng.Int63n(50))}})
		if err != nil {
			t.Fatalf("%s: insert %d at %v: %v", l.name, i, vt, err)
		}
		tt = int64(el.TTStart)
		live = append(live, el.ES)
		if rng.Intn(12) == 0 {
			k := rng.Intn(len(live))
			if err := remove(e, live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	if got := e.store.Kind(); got != l.label {
		t.Fatalf("%s: stored on the %v", l.name, got)
	}
	if a := e.view.Load().engine.Access(); a.HasOffsetBounds != l.bounded {
		t.Fatalf("%s: offset bounds %v", l.name, a.HasOffsetBounds)
	}
	return e, pinned
}

// selectStatements are the statement shapes a SELECT without an aggregate
// takes, over the relation r: plain, WHEN AT, WHEN DURING, each Allen
// relation (on interval relations), AS OF alone and with each of those,
// WHERE, ORDER BY and LIMIT. instants and tts are where they ask.
func selectStatements(intervals bool, instants, tts []int64) []string {
	windows := [][2]int64{{-100, 300}, {900, 1400}, {int64(chronon.MinChronon), 0}, {int64(chronon.MaxChronon), math.MaxInt64}}
	allen := func(prefix string) (out []string) {
		if !intervals {
			return nil
		}
		for _, rel := range interval.Relations() {
			for _, w := range windows[:2] {
				out = append(out, fmt.Sprintf("%s when %v [%d, %d)", prefix, rel, w[0], w[1]))
			}
		}
		return out
	}
	valid := func(prefix string) (out []string) {
		for _, at := range instants {
			out = append(out, fmt.Sprintf("%s when valid at %d", prefix, at))
		}
		for _, w := range windows {
			out = append(out, fmt.Sprintf("%s when valid during [%d, %d)", prefix, w[0], w[1]))
		}
		return append(out, allen(prefix)...)
	}
	out := []string{
		"select * from r",
		"select es, v from r where v > 20",
		"select es, v, vt_start from r when valid during [0, 1000) where v < 30 order by v",
		"select es from r order by vt_start limit 7",
		"select es, tt_end from r limit 5",
		"select es from r when valid during [0, 2000) order by v limit 9",
	}
	out = append(out, valid("select es, v, vt_start, vt_end from r")...)
	for _, tt := range tts {
		asOf := fmt.Sprintf("select es, tt_start, tt_end from r as of %d", tt)
		out = append(out, asOf, asOf+" where v > 10 order by v limit 4")
		out = append(out, valid(asOf)...)
	}
	return out
}

// asOfStamps are the transaction times the selection tests ask AS OF: the
// line's ends and stamps the relation carries, with the chronon before
// each.
func asOfStamps(rng *rand.Rand, els []*element.Element) []int64 {
	out := []int64{math.MinInt64, 0, math.MaxInt64, int64(chronon.Forever)}
	for range 3 {
		el := els[rng.Intn(len(els))]
		out = append(out, int64(el.TTStart), int64(el.TTStart)-1)
		if !el.Current() {
			out = append(out, int64(el.TTEnd), int64(el.TTEnd)-1)
		}
	}
	return out
}

// TestSelectIsTheDefinition holds every shape of SELECT without an
// aggregate, on every label, on the live view and on a pinned older one,
// to the definition: refmodel's selection by time over the view's versions,
// then tsql's residual over exactly those (readView.selected) — rows and
// their order. On the live view the facade, tsql.Eval over the relation,
// gives the same rows.
func TestSelectIsTheDefinition(t *testing.T) {
	ctx := context.Background()
	n := 2*storage.ChunkSize + 400
	if testing.Short() {
		n = storage.ChunkSize + 200
	}
	for li, leg := range selectLegs() {
		t.Run(leg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(li) + 1))
			c := New(Config{NewClock: logicalClock})
			e, pinned := leg.grow(t, c, rng, n)
			instants := append([]int64{0, 5, 150, 1999}, lineEnds...)
			instants = append(instants, int64(chronon.MinChronon)+2, int64(chronon.MaxChronon)-1)
			live := e.view.Load()
			for _, view := range []struct {
				name string
				v    *readView
			}{{"pinned", pinned}, {"live", live}} {
				els := view.v.elems()
				for _, src := range selectStatements(leg.stamp == element.IntervalStamp, instants, asOfStamps(rng, els)) {
					q, err := tsql.Parse(src)
					if err != nil {
						t.Fatalf("%q: %v", src, err)
					}
					got, _, _, err := e.selectOn(ctx, view.v, q)
					if err != nil {
						t.Fatalf("%s view, %q: %v", view.name, src, err)
					}
					want, err := view.v.selected(q)
					if err != nil {
						t.Fatalf("%s view, %q: the definition: %v", view.name, src, err)
					}
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("%s view, %q: %d rows, the definition %d\ngot  %v\nwant %v", view.name, src, len(got.Rows), len(want.Rows), head(got.Rows), head(want.Rows))
					}
					if view.v != live {
						continue
					}
					var facade *tsql.Result
					if err := e.Locked().View(func(r *relation.Relation) (err error) {
						facade, err = tsql.Eval(q, r)
						return err
					}); err != nil {
						t.Fatalf("%q: tsql.Eval: %v", src, err)
					}
					if !reflect.DeepEqual(facade.Rows, got.Rows) {
						t.Fatalf("%q: tsql.Eval has %d rows, the catalog %d", src, len(facade.Rows), len(got.Rows))
					}
				}
			}
		})
	}
}

// head is the first few rows of a result, for a failure message.
func head(rows [][]element.Value) [][]element.Value { return rows[:min(len(rows), 4)] }

// TestAnswerCtxIsTheDefinition holds each element read the server encodes,
// AnswerCtx on every kind, to refmodel over the published view's versions
// on every label, at the ends of the line as well as inside it: a
// time-slice at math.MaxInt64 is read by its instant, whose window's end
// wraps, and an as-of query at an instant selects by transaction time too.
func TestAnswerCtxIsTheDefinition(t *testing.T) {
	ctx := context.Background()
	for li, leg := range selectLegs() {
		t.Run(leg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(li) + 1))
			c := New(Config{NewClock: logicalClock, CacheBytes: 8 << 20})
			e, _ := leg.grow(t, c, rng, storage.ChunkSize+300)
			els := e.view.Load().elems()
			tts := asOfStamps(rng, els)
			for _, vt := range append([]int64{0, 150, int64(chronon.MinChronon) + 2}, lineEnds...) {
				for _, tt := range tts {
					for _, r := range []struct {
						q    plan.Query
						want []*element.Element
					}{
						{plan.Query{Kind: plan.QCurrent}, refmodel.Current(els)},
						{plan.Query{Kind: plan.QTimeslice, VTLo: vt, VTHi: vt + 1}, refmodel.Timeslice(els, chronon.Chronon(vt))},
						{plan.Query{Kind: plan.QRollback, TT: tt}, refmodel.Rollback(els, chronon.Chronon(tt))},
						{plan.Query{Kind: plan.QAsOf, VTLo: vt, VTHi: vt + 1, TT: tt}, refmodel.AsOf(els, chronon.Chronon(vt), chronon.Chronon(tt))},
						{plan.Query{Kind: plan.QAsOf, TT: tt}, refmodel.Rollback(els, chronon.Chronon(tt))},
					} {
						res, err := answerCtx(ctx, e, r.q)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := elementKeys(t, res.Elements), elementKeys(t, r.want); got != want {
							t.Fatalf("%+v: %d elements, the definition %d", r.q, len(res.Elements), len(r.want))
						}
					}
				}
			}
		})
	}
}
