// Package storage provides physical organizations for temporal relations
// and an advisor that selects among them based on declared temporal
// specializations.
//
// This realizes the paper's claimed benefit (§1): "The additional
// semantics, when captured by an appropriately extended database system,
// may be used for selecting appropriate storage structures, indexing
// techniques, and query processing strategies" — and the concrete §3.1
// observation that "at the implementation level, a degenerate temporal
// relation can be advantageously treated as a rollback relation due to the
// fact that relations are append-only and elements are entered in
// time-stamp order", plus the §3.2 observation that in globally sequential
// relations "valid time can be approximated with transaction time,
// yielding an append-only relation that can support historical (as well as
// transaction time) queries."
//
// Every access path reports how many elements it touched, so the benefit
// of a specialized organization is directly measurable.
package storage

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
)

// Kind identifies a physical organization.
type Kind uint8

const (
	// Heap stores elements in arrival order and assumes nothing: every
	// query scans the whole store. This is the only safe organization for
	// a general temporal relation without auxiliary indexes.
	Heap Kind = iota
	// TTOrdered keeps elements ordered by insertion transaction time
	// (which the engine produces naturally): rollback queries binary-
	// search the prefix; valid-time queries still scan.
	TTOrdered
	// VTOrdered additionally relies on a declared non-decreasing
	// specialization: elements arrive in valid-time order, so the store
	// is simultaneously tt- and vt-ordered and valid-time queries
	// binary-search. Interval relations additionally need sequentiality
	// (non-overlap) for point lookups to be complete.
	VTOrdered
)

// String names the kind. Unknown values yield the stable token "unknown"
// rather than a formatted ordinal, so the name can cross the wire and come
// back through ParseKind without the two ends having to agree on the enum's
// width.
func (k Kind) String() string {
	switch k {
	case Heap:
		return "heap"
	case TTOrdered:
		return "tt-ordered log"
	case VTOrdered:
		return "vt-ordered log"
	}
	return "unknown"
}

// Kinds lists every physical organization, in preference-neutral order.
func Kinds() []Kind { return []Kind{Heap, TTOrdered, VTOrdered} }

// ParseKind inverts String: it maps a wire token back to the kind. The
// "unknown" token (and anything else unrecognized) is an error — a client
// must not mistake a newer server's organization for one it knows.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return Heap, fmt.Errorf("storage: unknown organization %q", s)
}

// Store is a physical organization of a temporal relation's elements.
// Implementations are not safe for concurrent mutation.
type Store interface {
	Kind() Kind
	Len() int
	// Insert appends a newly stored element. Elements must arrive in
	// non-decreasing tt⊢ order (the engine's natural order); VTOrdered
	// additionally requires non-decreasing valid-time order and returns an
	// error when the assumption its specialization promised is broken.
	Insert(e *element.Element) error
	// Scan visits every element; it returns the number touched.
	Scan(visit func(*element.Element) bool) int
	// Timeslice returns the current elements valid at vt and the number of
	// elements touched to find them.
	Timeslice(vt chronon.Chronon) ([]*element.Element, int)
	// VTRange returns the current elements whose valid time intersects
	// [lo, hi) and the number touched.
	VTRange(lo, hi chronon.Chronon) ([]*element.Element, int)
	// Rollback returns the elements present at transaction time tt and the
	// number touched.
	Rollback(tt chronon.Chronon) ([]*element.Element, int)
	// Snapshot returns an immutable view of the store's current contents
	// in O(1): a copy of the sequence header, sharing every chunk with the
	// live store (seq.go). Subsequent Inserts on the live store land past
	// the snapshot's bounds and subsequent Replaces copy the one chunk they
	// touch first, so the snapshot never observes a mutation. Inserting
	// into a snapshot is an error; Replacing in one panics.
	Snapshot() Store
	// Replace substitutes repl for old (matched by pointer identity). The
	// engine uses it to publish copied-on-close elements: a logical delete
	// clones the element, finalizes TTEnd on the clone, and swaps the clone
	// in, leaving the original — still open — for any pinned snapshot. Its
	// cost does not grow with the store: one binary search, and after a
	// Snapshot one copied chunk and the spine block it hangs off. A missing
	// old is a no-op.
	Replace(old, repl *element.Element)
}

// errFrozenInsert rejects appends to a snapshot.
var errFrozenInsert = fmt.Errorf("storage: insert into a frozen snapshot")

// exclusiveEnd returns the first chronon after the element's valid time:
// end for intervals, the event chronon plus one for events.
func exclusiveEnd(e *element.Element) chronon.Chronon {
	if c, ok := e.VT.Event(); ok {
		return c.Add(1)
	}
	return e.VT.End()
}

// validAtRange reports whether the element's valid time intersects [lo, hi).
func validAtRange(e *element.Element, lo, hi chronon.Chronon) bool {
	if c, ok := e.VT.Event(); ok {
		return lo <= c && c < hi
	}
	iv, _ := e.VT.Interval()
	return iv.Start < hi && lo < iv.End
}

// HeapStore is the general-purpose organization: arrival order, full scans.
// Len, Scan and Replace are the sequence's.
type HeapStore struct{ seq }

// NewHeap returns an empty heap store.
func NewHeap() *HeapStore { return &HeapStore{} }

// Kind reports Heap.
func (s *HeapStore) Kind() Kind { return Heap }

// Insert appends the element.
func (s *HeapStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	s.push(e)
	return nil
}

// Snapshot shares every chunk, O(1).
func (s *HeapStore) Snapshot() Store { return &HeapStore{s.snapshot()} }

// Timeslice scans the whole store.
func (s *HeapStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.vtScan(vt, vt.Add(1))
}

// VTRange scans the whole store.
func (s *HeapStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	return s.vtScan(lo, hi)
}

// Rollback filters the whole store: the heap does not assume tt order.
func (s *HeapStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	return s.presentIn(s.n, tt)
}

// TTLogStore keeps elements in tt⊢ order (the engine's arrival order) and
// exploits it for rollback: the candidates are exactly the prefix with
// tt⊢ ≤ tt, found by binary search. Compact seals its stable prefix into
// runs whose min/max metadata lets queries skip them whole (compact.go).
type TTLogStore struct{ seq }

// NewTTLog returns an empty tt-ordered log store.
func NewTTLog() *TTLogStore { return &TTLogStore{} }

// Kind reports TTOrdered.
func (s *TTLogStore) Kind() Kind { return TTOrdered }

// Insert appends the element, verifying tt order.
func (s *TTLogStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	if s.n > 0 {
		if last := s.at(s.n - 1); e.TTStart < last.TTStart {
			return fmt.Errorf("storage: tt-ordered insert out of order (%v after %v)",
				e.TTStart, last.TTStart)
		}
	}
	s.push(e)
	return nil
}

// Snapshot shares every chunk, O(1). Sealed runs carry over: the published
// read path keeps the run-skipping benefit.
func (s *TTLogStore) Snapshot() Store { return &TTLogStore{s.snapshot()} }

// Timeslice scans the whole store: tt order says nothing about vt.
func (s *TTLogStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.vtScan(vt, vt.Add(1))
}

// VTRange scans the store; sealed runs act as zone maps — a run whose
// recorded valid-time envelope misses [lo, hi), or that held no current
// element when sealed, is skipped at the cost of one metadata probe.
func (s *TTLogStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	return s.vtScan(lo, hi)
}

// Rollback binary-searches for the prefix with tt⊢ ≤ tt and filters it for
// elements still present at tt. Without runs, touched is the prefix length;
// sealed runs whose every element was already closed by tt are skipped for
// one metadata probe each.
func (s *TTLogStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	return s.rollback(tt)
}

// TTWindow returns the elements with lo ≤ tt⊢ ≤ hi, found by binary search
// on the insertion order. The touched count is the window size plus the
// probe. This is the access path that bounded specializations unlock: a
// declared lo ≤ vt − tt ≤ hi turns a valid-time predicate into exactly
// such a transaction-time window.
func (s *TTLogStore) TTWindow(lo, hi chronon.Chronon) ([]*element.Element, int) {
	var out []*element.Element
	touched := 1
	for i := s.search(func(e *element.Element) bool { return e.TTStart >= lo }); i < s.n; i++ {
		e := s.at(i)
		if e.TTStart > hi {
			break
		}
		out = append(out, e)
		touched++
	}
	return out, touched
}

// VTLogStore relies on a declared non-decreasing specialization: arrival
// order is simultaneously tt order and valid-time order, so one append-only
// structure serves transaction-time and valid-time queries alike — the
// paper's append-only relation "that can support historical (as well as
// transaction time) queries". Insert enforces the promised order and fails
// loudly if the declaration was wrong. Both the tt and vt envelopes of its
// sealed runs are valid binary-search keys, because the store enforces both
// orders (compact.go).
type VTLogStore struct{ seq }

// NewVTLog returns an empty vt-ordered log store.
func NewVTLog() *VTLogStore { return &VTLogStore{} }

// Kind reports VTOrdered.
func (s *VTLogStore) Kind() Kind { return VTOrdered }

// Snapshot shares every chunk, O(1); sealed runs carry over.
func (s *VTLogStore) Snapshot() Store { return &VTLogStore{s.snapshot()} }

// Insert appends the element, verifying both orders.
func (s *VTLogStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	if s.n > 0 {
		last := s.at(s.n - 1)
		if e.TTStart < last.TTStart {
			return fmt.Errorf("storage: vt-ordered insert out of tt order (%v after %v)",
				e.TTStart, last.TTStart)
		}
		if e.VT.Start() < last.VT.Start() {
			return fmt.Errorf("storage: vt-ordered insert out of vt order (%v after %v); "+
				"the non-decreasing declaration is violated", e.VT.Start(), last.VT.Start())
		}
	}
	s.push(e)
	return nil
}

// Timeslice binary-searches the valid-time order.
func (s *VTLogStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.vtRangeOrdered(vt, vt.Add(1))
}

// VTRange binary-searches for the first element that could intersect
// [lo, hi) and walks forward until starts pass hi. For interval elements
// the walk starts at the beginning of the run of intervals that may still
// cover lo; with a sequential (non-overlapping) relation that run has
// length ≤ 1, keeping the touched count near the answer size.
func (s *VTLogStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	return s.vtRangeOrdered(lo, hi)
}

// Rollback binary-searches the tt order (shared with arrival order),
// skipping sealed runs that were wholly dead by tt.
func (s *VTLogStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	return s.rollback(tt)
}
