package element

import (
	"fmt"
	"strings"

	"repro/internal/chronon"
	"repro/internal/interval"
	"repro/internal/surrogate"
)

// Element is a temporal element: the paper's unit of storage (§2). An
// element records one or more facts about a real-world object together with
// when those facts are true in reality (the valid time-stamp) and when they
// were stored in the relation (the transaction-time existence interval).
//
// TTEnd is chronon.Forever while the element is current; a logical deletion
// sets it to the deleting transaction's time. A modification is a deletion
// followed by an insertion of a new element with a fresh element surrogate,
// so insertion and deletion points remain unambiguous.
type Element struct {
	ES surrogate.Surrogate // element surrogate (unique per stored element)
	OS surrogate.Surrogate // object surrogate (shared along a life-line)

	TTStart chronon.Chronon // tt⊢: transaction time of insertion
	TTEnd   chronon.Chronon // tt⊣: transaction time of logical deletion

	VT Timestamp // valid time-stamp (event or interval)

	Invariant []Value           // time-invariant attribute values (e.g. keys)
	Varying   []Value           // time-varying attribute values
	UserTimes []chronon.Chronon // user-defined times (no system semantics)
}

// Existence returns the transaction-time existence interval [tt⊢, tt⊣).
func (e *Element) Existence() interval.Interval {
	return interval.Interval{Start: e.TTStart, End: e.TTEnd}
}

// Current reports whether the element has not been logically deleted.
func (e *Element) Current() bool { return e.TTEnd == chronon.Forever }

// PresentAt reports whether the element is part of the historical state at
// transaction time tt — i.e. tt falls inside the existence interval.
func (e *Element) PresentAt(tt chronon.Chronon) bool {
	return e.TTStart <= tt && tt < e.TTEnd
}

// ValidAt reports whether the element's facts are true in reality at valid
// time vt.
func (e *Element) ValidAt(vt chronon.Chronon) bool { return e.VT.Covers(vt) }

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	c := *e
	c.Invariant, c.Varying = PackValues(e.Invariant, e.Varying)
	c.UserTimes = append([]chronon.Chronon(nil), e.UserTimes...)
	return &c
}

// PackValues copies an element's two value lists into one backing array,
// so a stored element costs one allocation for its values. An empty list
// comes back nil, and the invariant slice is capped at its length: an
// append to it reallocates rather than reach into the varying values.
func PackValues(invariant, varying []Value) (inv, vary []Value) {
	n := len(invariant)
	if n+len(varying) == 0 {
		return nil, nil
	}
	all := append(append(make([]Value, 0, n+len(varying)), invariant...), varying...)
	if n > 0 {
		inv = all[:n:n]
	}
	if n < len(all) {
		vary = all[n:]
	}
	return inv, vary
}

// String renders the element for logs and debugging.
func (e *Element) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v/%v tt=[%v,%v) vt=%v", e.ES, e.OS, e.TTStart, e.TTEnd, e.VT)
	if len(e.Invariant) > 0 {
		fmt.Fprintf(&b, " inv=%v", e.Invariant)
	}
	if len(e.Varying) > 0 {
		fmt.Fprintf(&b, " var=%v", e.Varying)
	}
	return b.String()
}
