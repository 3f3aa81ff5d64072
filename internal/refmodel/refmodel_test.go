package refmodel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// randomList draws n versions over a few objects, event or interval stamped,
// some closed, with stamps near the far end of the time line now and then,
// and one version listed twice. It returns the list and the latest
// transaction time any version carries.
func randomList(rng *rand.Rand, n int, interval bool) ([]*element.Element, chronon.Chronon) {
	var out []*element.Element
	last := chronon.Chronon(0)
	for i := range n {
		e := &element.Element{
			ES:      surrogate.Surrogate(i + 1),
			OS:      surrogate.Surrogate(1 + rng.Intn(4)),
			TTStart: chronon.Chronon(rng.Intn(200)),
			TTEnd:   chronon.Forever,
		}
		last = max(last, e.TTStart)
		if rng.Intn(3) == 0 {
			e.TTEnd = e.TTStart + chronon.Chronon(1+rng.Intn(50))
			last = max(last, e.TTEnd)
		}
		lo := chronon.Chronon(rng.Intn(300))
		if rng.Intn(40) == 0 {
			lo = chronon.MaxChronon - chronon.Chronon(rng.Intn(3))
		}
		if interval {
			e.VT = element.SpanOf(lo, lo+chronon.Chronon(1+rng.Intn(60)))
		} else {
			e.VT = element.EventAt(lo)
		}
		out = append(out, e)
	}
	if n > 0 {
		out = append(out, out[rng.Intn(n)])
	}
	return out, last
}

// probes draws valid times from the list's own stamps and their edges.
func probes(rng *rand.Rand, elems []*element.Element) []chronon.Chronon {
	out := []chronon.Chronon{0, chronon.MaxChronon}
	for range 6 {
		if len(elems) == 0 {
			break
		}
		e := elems[rng.Intn(len(elems))]
		out = append(out, e.VT.Start(), e.VT.End(), e.VT.End()-1, e.VT.Start()+chronon.Chronon(rng.Intn(5)))
	}
	return out
}

// TestIdentities holds the queries to the identities the paper's
// definitions imply, on random lists: the current state is the rollback to
// any time at or past every stamp, and so is the state the bitemporal
// queries read there; a time-slice, as of a time or not, is the valid-time
// range one chronon wide.
func TestIdentities(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		elems, last := randomList(rng, rng.Intn(40), seed%2 == 0)
		for _, tt := range []chronon.Chronon{last, last + 1, last + chronon.Chronon(rng.Intn(1000)), chronon.Forever - 1} {
			if got, want := Rollback(elems, tt), Current(elems); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Rollback(%d) has %d elements, Current %d", seed, tt, len(got), len(want))
			}
			for _, vt := range probes(rng, elems) {
				if got, want := AsOf(elems, vt, tt), Timeslice(elems, vt); !slices.Equal(got, want) {
					t.Fatalf("seed %d: AsOf(%d, %d) has %d elements, Timeslice(%d) %d", seed, vt, tt, len(got), vt, len(want))
				}
			}
		}
		tt := chronon.Chronon(rng.Intn(250))
		for _, vt := range probes(rng, elems) {
			if got, want := VTRange(elems, vt, vt+1), Timeslice(elems, vt); !slices.Equal(got, want) {
				t.Fatalf("seed %d: VTRange(%d, %d) has %d elements, Timeslice(%d) %d", seed, vt, vt+1, len(got), vt, len(want))
			}
			if got, want := VTRangeAsOf(elems, vt, vt+1, tt), AsOf(elems, vt, tt); !slices.Equal(got, want) {
				t.Fatalf("seed %d: VTRangeAsOf(%d, %d, %d) has %d elements, AsOf(%d, %d) %d", seed, vt, vt+1, tt, len(got), vt, tt, len(want))
			}
			hi := vt + chronon.Chronon(rng.Intn(100))
			if got, want := VTRangeAsOf(elems, vt, hi, last), VTRange(elems, vt, hi); !slices.Equal(got, want) {
				t.Fatalf("seed %d: VTRangeAsOf(%d, %d, %d) has %d elements, VTRange %d", seed, vt, hi, last, len(got), len(want))
			}
		}
	}
}

// TestDuplicatesAndOrderKept: a query keeps the list's order and every
// occurrence of a version it admits, and answers nil when none passes.
func TestDuplicatesAndOrderKept(t *testing.T) {
	a := &element.Element{ES: 1, OS: 7, TTStart: 1, TTEnd: chronon.Forever, VT: element.SpanOf(10, 20)}
	b := &element.Element{ES: 2, OS: 7, TTStart: 2, TTEnd: 5, VT: element.EventAt(15)}
	list := []*element.Element{a, b, a, b, a}
	for _, tc := range []struct {
		name      string
		got, want []*element.Element
	}{
		{"Current", Current(list), []*element.Element{a, a, a}},
		{"Rollback(3)", Rollback(list, 3), list},
		{"Rollback(5)", Rollback(list, 5), []*element.Element{a, a, a}},
		{"Timeslice(15)", Timeslice(list, 15), []*element.Element{a, a, a}},
		{"VTRange(0, 11)", VTRange(list, 0, 11), []*element.Element{a, a, a}},
		{"AsOf(15, 4)", AsOf(list, 15, 4), list},
		{"VTRangeAsOf(0, 11, 5)", VTRangeAsOf(list, 0, 11, 5), []*element.Element{a, a, a}},
		{"History(7)", History(list, 7), list},
		{"History(8)", History(list, 8), nil},
		{"Timeslice(20)", Timeslice(list, 20), nil},
	} {
		if !slices.Equal(tc.got, tc.want) || (tc.want == nil) != (tc.got == nil) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestValidDuring pins the half-open window on both stamp kinds, the far
// end of the time line included.
func TestValidDuring(t *testing.T) {
	ev := &element.Element{VT: element.EventAt(10)}
	iv := &element.Element{VT: element.SpanOf(10, 20)}
	far := &element.Element{VT: element.EventAt(chronon.MaxChronon)}
	for _, tc := range []struct {
		e      *element.Element
		lo, hi chronon.Chronon
		want   bool
	}{
		{ev, 10, 11, true}, {ev, 9, 10, false}, {ev, 11, 20, false},
		{iv, 19, 30, true}, {iv, 20, 30, false}, {iv, 0, 10, false}, {iv, 0, 11, true}, {iv, 12, 13, true},
		{far, chronon.MaxChronon, chronon.MaxChronon + 1, true}, {far, 0, chronon.MaxChronon, false},
	} {
		if got := ValidDuring(tc.e, tc.lo, tc.hi); got != tc.want {
			t.Errorf("ValidDuring(%v, %d, %d) = %v, want %v", tc.e.VT, tc.lo, tc.hi, got, tc.want)
		}
	}
}
