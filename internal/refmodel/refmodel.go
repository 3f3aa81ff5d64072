// Package refmodel is the reference model: the paper's queries defined once,
// by brute force, over a flat list of element versions.
//
// The current, rollback, time-slice and bitemporal (as-of) queries of §2,
// the valid-time range query, current and as of a transaction time, and an
// object's life-line are each one filter over the list, in list order, with
// duplicates kept, built from the element's own predicates (Current,
// PresentAt, ValidAt) and ValidDuring.
// Nothing here knows a store, a chunk, an order or an index: a query over
// any list is the same filter, which is what lets a test hold an access
// method to its definition (snapshot reducibility: the query of a snapshot
// is the filter of the snapshot's list). The package imports only element,
// chronon and surrogate, so every layer's tests can use it, storage's own
// included, and no code it checks can share a search with it.
//
// Every query returns the elements of the list it was given, nil when none
// passes; the slice is the caller's.
//
// Window aggregates are not defined here. Their definition is
// vec.RowAggregate: the engine's folds are held to its arrival-order float
// sums and error texts bit for bit, and the benchmark module imports it, so
// a second definition here would be a copy to keep in step with it.
//
// A SELECT is held to this package too: its selection by time is one of the
// filters here — AS OF tt the rollback to tt, WHEN VALID AT the time-slice,
// WHEN VALID DURING the valid-time range, else the current state — and the
// rest of the statement is tsql's residual over exactly that list.
package refmodel

import (
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// ValidDuring reports whether the element's valid time intersects [lo, hi).
func ValidDuring(e *element.Element, lo, hi chronon.Chronon) bool {
	if c, ok := e.VT.Event(); ok {
		return lo <= c && c < hi
	}
	iv, _ := e.VT.Interval()
	return iv.Start < hi && lo < iv.End
}

// Current is the current query: the elements not logically deleted.
func Current(elems []*element.Element) []*element.Element {
	return filter(elems, (*element.Element).Current)
}

// Rollback is the rollback query: the elements present at transaction time
// tt, the historical state as stored then.
func Rollback(elems []*element.Element, tt chronon.Chronon) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.PresentAt(tt) })
}

// Timeslice is the historical query: the current elements valid at vt.
func Timeslice(elems []*element.Element, vt chronon.Chronon) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.Current() && e.ValidAt(vt) })
}

// VTRange is the valid-time range query: the current elements valid during
// some part of [lo, hi).
func VTRange(elems []*element.Element, lo, hi chronon.Chronon) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.Current() && ValidDuring(e, lo, hi) })
}

// AsOf is the bitemporal query: the elements present at transaction time tt
// that are valid at vt.
func AsOf(elems []*element.Element, vt, tt chronon.Chronon) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.PresentAt(tt) && e.ValidAt(vt) })
}

// VTRangeAsOf is the bitemporal range query: the elements present at
// transaction time tt that are valid during some part of [lo, hi) — what a
// window aggregate's AS OF and WHEN VALID DURING admit.
func VTRangeAsOf(elems []*element.Element, lo, hi, tt chronon.Chronon) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.PresentAt(tt) && ValidDuring(e, lo, hi) })
}

// History is an object's life-line: every version with object surrogate os.
func History(elems []*element.Element, os surrogate.Surrogate) []*element.Element {
	return filter(elems, func(e *element.Element) bool { return e.OS == os })
}

func filter(elems []*element.Element, keep func(*element.Element) bool) []*element.Element {
	var out []*element.Element
	for _, e := range elems {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
