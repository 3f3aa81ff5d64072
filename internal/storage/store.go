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
	"sort"

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
	// Snapshot returns an immutable view of the store's current contents.
	// The snapshot shares the backing array with the live store (O(1) for
	// the log organizations); subsequent Inserts on the live store append
	// past the snapshot's bound and subsequent Replaces copy the backing
	// first, so the snapshot never observes a mutation. Inserting into a
	// snapshot is an error; Replacing in one panics.
	Snapshot() Store
	// Replace substitutes repl for old (matched by pointer identity) in
	// place. The engine uses it to publish copied-on-close elements: a
	// logical delete clones the element, finalizes TTEnd on the clone, and
	// swaps the clone in, leaving the original — still open — for any
	// pinned snapshot. A missing old is a no-op.
	Replace(old, repl *element.Element)
}

// errFrozenInsert rejects appends to a snapshot.
var errFrozenInsert = fmt.Errorf("storage: insert into a frozen snapshot")

// snapTail full-caps the prefix so a live-side append can never land
// inside the snapshot's view.
func snapTail(elems []*element.Element) []*element.Element {
	n := len(elems)
	return elems[:n:n]
}

// replaceShared performs the copy-when-shared pointer swap common to the
// slice-backed stores, returning the elements and the index the swap landed
// on (-1 when old is not stored). Replacing inside a frozen snapshot is a
// bug in the caller (snapshots are immutable), so it trips loudly. Elements
// arrive in tt⊢ order, so old is found by binary search plus a walk over the
// run sharing its TTStart — replaying a log of closes stays O(n log n). Only
// the heap can hold a history whose tt order broke; that falls through to
// the scan.
func replaceShared(elems []*element.Element, shared *bool, frozen bool, old, repl *element.Element) ([]*element.Element, int) {
	if frozen {
		panic("storage: replace in a frozen snapshot")
	}
	if *shared {
		elems = append([]*element.Element(nil), elems...)
		*shared = false
	}
	i := sort.Search(len(elems), func(j int) bool { return elems[j].TTStart >= old.TTStart })
	for ; i < len(elems) && elems[i].TTStart == old.TTStart; i++ {
		if elems[i] == old {
			elems[i] = repl
			return elems, i
		}
	}
	for i, e := range elems {
		if e == old {
			elems[i] = repl
			return elems, i
		}
	}
	return elems, -1
}

// replaceInLog is Replace for the two log organizations: the pointer swap,
// plus the close booked against the sealed run it landed in. The run
// metadata follows the same copy-when-shared rule as the elements, so a
// snapshot keeps the close counts it was taken with.
func replaceInLog(elems []*element.Element, runs []runMeta, shared *bool, frozen bool, old, repl *element.Element) ([]*element.Element, []runMeta) {
	if *shared {
		runs = append([]runMeta(nil), runs...)
	}
	elems, i := replaceShared(elems, shared, frozen, old, repl)
	noteClose(runs, i, old, repl)
	return elems, runs
}

// Elements returns the store's elements in arrival order. For the
// slice-backed organizations this is the backing slice itself — callers
// must treat it as read-only, which is exactly the contract a Snapshot
// provides. Unknown implementations fall back to a Scan copy.
func Elements(st Store) []*element.Element {
	switch s := st.(type) {
	case *HeapStore:
		return s.elems
	case *TTLogStore:
		return s.elems
	case *VTLogStore:
		return s.elems
	case *IndexedEventStore:
		return s.heap.elems
	}
	out := make([]*element.Element, 0, st.Len())
	st.Scan(func(e *element.Element) bool { out = append(out, e); return true })
	return out
}

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
type HeapStore struct {
	elems  []*element.Element
	shared bool // backing array visible to a snapshot; copy before in-place edits
	frozen bool // this store is a snapshot; mutation is a caller bug
}

// NewHeap returns an empty heap store.
func NewHeap() *HeapStore { return &HeapStore{} }

// Kind reports Heap.
func (s *HeapStore) Kind() Kind { return Heap }

// Len reports the number of stored elements.
func (s *HeapStore) Len() int { return len(s.elems) }

// Insert appends the element.
func (s *HeapStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	s.elems = append(s.elems, e)
	return nil
}

// Snapshot shares the backing array, O(1).
func (s *HeapStore) Snapshot() Store {
	s.shared = true
	return &HeapStore{elems: snapTail(s.elems), frozen: true}
}

// Replace swaps repl for old by pointer identity, copying the backing
// array first if a snapshot shares it.
func (s *HeapStore) Replace(old, repl *element.Element) {
	s.elems, _ = replaceShared(s.elems, &s.shared, s.frozen, old, repl)
}

// Scan visits every element.
func (s *HeapStore) Scan(visit func(*element.Element) bool) int {
	for i, e := range s.elems {
		if !visit(e) {
			return i + 1
		}
	}
	return len(s.elems)
}

// Timeslice scans the whole store.
func (s *HeapStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.VTRange(vt, vt.Add(1))
}

// VTRange scans the whole store.
func (s *HeapStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	var out []*element.Element
	for _, e := range s.elems {
		if e.Current() && validAtRange(e, lo, hi) {
			out = append(out, e)
		}
	}
	return out, len(s.elems)
}

// Rollback scans the whole store.
func (s *HeapStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	var out []*element.Element
	for _, e := range s.elems {
		if e.PresentAt(tt) {
			out = append(out, e)
		}
	}
	return out, len(s.elems)
}

// TTLogStore keeps elements in tt⊢ order (the engine's arrival order) and
// exploits it for rollback: the candidates are exactly the prefix with
// tt⊢ ≤ tt, found by binary search.
type TTLogStore struct {
	elems  []*element.Element
	shared bool
	frozen bool
	// runs are sealed, delta-encoded prefixes produced by Compact; their
	// min/max metadata lets queries skip whole runs (see compact.go).
	runs []runMeta
}

// NewTTLog returns an empty tt-ordered log store.
func NewTTLog() *TTLogStore { return &TTLogStore{} }

// Kind reports TTOrdered.
func (s *TTLogStore) Kind() Kind { return TTOrdered }

// Len reports the number of stored elements.
func (s *TTLogStore) Len() int { return len(s.elems) }

// Insert appends the element, verifying tt order.
func (s *TTLogStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	if n := len(s.elems); n > 0 && e.TTStart < s.elems[n-1].TTStart {
		return fmt.Errorf("storage: tt-ordered insert out of order (%v after %v)",
			e.TTStart, s.elems[n-1].TTStart)
	}
	s.elems = append(s.elems, e)
	return nil
}

// Snapshot shares the backing array, O(1). Sealed runs carry over (full-
// capped, so a later Compact on the live store appends past the snapshot's
// view): the published read path keeps the run-skipping benefit.
func (s *TTLogStore) Snapshot() Store {
	s.shared = true
	return &TTLogStore{elems: snapTail(s.elems), frozen: true, runs: snapRuns(s.runs)}
}

// Replace swaps repl for old by pointer identity; tt⊢ order is unchanged
// because a closed clone keeps its TTStart.
func (s *TTLogStore) Replace(old, repl *element.Element) {
	s.elems, s.runs = replaceInLog(s.elems, s.runs, &s.shared, s.frozen, old, repl)
}

// Scan visits every element.
func (s *TTLogStore) Scan(visit func(*element.Element) bool) int {
	for i, e := range s.elems {
		if !visit(e) {
			return i + 1
		}
	}
	return len(s.elems)
}

// Timeslice scans the whole store: tt order says nothing about vt.
func (s *TTLogStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.VTRange(vt, vt.Add(1))
}

// VTRange scans the store; sealed runs act as zone maps — a run whose
// recorded valid-time envelope misses [lo, hi), or that held no current
// element when sealed, is skipped at the cost of one metadata probe.
func (s *TTLogStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	if len(s.runs) == 0 {
		var out []*element.Element
		for _, e := range s.elems {
			if e.Current() && validAtRange(e, lo, hi) {
				out = append(out, e)
			}
		}
		return out, len(s.elems)
	}
	return vtRangeZoneMap(s.elems, s.runs, lo, hi)
}

// Rollback binary-searches for the prefix with tt⊢ ≤ tt and filters it for
// elements still present at tt. Without runs, touched is the prefix length;
// sealed runs whose every element was already closed by tt are skipped for
// one metadata probe each.
func (s *TTLogStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	n := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].TTStart > tt })
	if len(s.runs) == 0 {
		var out []*element.Element
		for _, e := range s.elems[:n] {
			if e.PresentAt(tt) {
				out = append(out, e)
			}
		}
		return out, n
	}
	return rollbackWithRuns(s.elems, s.runs, tt, n)
}

// TTWindow returns the elements with lo ≤ tt⊢ ≤ hi, found by binary search
// on the insertion order. The touched count is the window size plus the
// probe. This is the access path that bounded specializations unlock: a
// declared lo ≤ vt − tt ≤ hi turns a valid-time predicate into exactly
// such a transaction-time window.
func (s *TTLogStore) TTWindow(lo, hi chronon.Chronon) ([]*element.Element, int) {
	start := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].TTStart >= lo })
	var out []*element.Element
	touched := 1
	for i := start; i < len(s.elems) && s.elems[i].TTStart <= hi; i++ {
		out = append(out, s.elems[i])
		touched++
	}
	return out, touched
}

// VTLogStore relies on a declared non-decreasing specialization: arrival
// order is simultaneously tt order and valid-time order, so one append-only
// structure serves transaction-time and valid-time queries alike — the
// paper's append-only relation "that can support historical (as well as
// transaction time) queries". Insert enforces the promised order and fails
// loudly if the declaration was wrong.
type VTLogStore struct {
	elems  []*element.Element
	shared bool
	frozen bool
	// runs are sealed, delta-encoded prefixes produced by Compact; both the
	// tt and vt envelopes are valid binary-search keys here because the
	// store enforces both orders (see compact.go).
	runs []runMeta
}

// NewVTLog returns an empty vt-ordered log store.
func NewVTLog() *VTLogStore { return &VTLogStore{} }

// Kind reports VTOrdered.
func (s *VTLogStore) Kind() Kind { return VTOrdered }

// Len reports the number of stored elements.
func (s *VTLogStore) Len() int { return len(s.elems) }

// Snapshot shares the backing array, O(1); sealed runs carry over.
func (s *VTLogStore) Snapshot() Store {
	s.shared = true
	return &VTLogStore{elems: snapTail(s.elems), frozen: true, runs: snapRuns(s.runs)}
}

// Replace swaps repl for old by pointer identity; both orders are
// unchanged because a closed clone keeps its TTStart and valid time.
func (s *VTLogStore) Replace(old, repl *element.Element) {
	s.elems, s.runs = replaceInLog(s.elems, s.runs, &s.shared, s.frozen, old, repl)
}

// Insert appends the element, verifying both orders.
func (s *VTLogStore) Insert(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	if n := len(s.elems); n > 0 {
		last := s.elems[n-1]
		if e.TTStart < last.TTStart {
			return fmt.Errorf("storage: vt-ordered insert out of tt order (%v after %v)",
				e.TTStart, last.TTStart)
		}
		if e.VT.Start() < last.VT.Start() {
			return fmt.Errorf("storage: vt-ordered insert out of vt order (%v after %v); "+
				"the non-decreasing declaration is violated", e.VT.Start(), last.VT.Start())
		}
	}
	s.elems = append(s.elems, e)
	return nil
}

// Scan visits every element.
func (s *VTLogStore) Scan(visit func(*element.Element) bool) int {
	for i, e := range s.elems {
		if !visit(e) {
			return i + 1
		}
	}
	return len(s.elems)
}

// Timeslice binary-searches the valid-time order.
func (s *VTLogStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	return s.VTRange(vt, vt.Add(1))
}

// VTRange binary-searches for the first element that could intersect
// [lo, hi) and walks forward until starts pass hi. For interval elements
// the walk starts at the beginning of the run of intervals that may still
// cover lo; with a sequential (non-overlapping) relation that run has
// length ≤ 1, keeping the touched count near the answer size.
func (s *VTLogStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	if len(s.runs) > 0 {
		return vtRangeOrderedRuns(s.elems, s.runs, lo, hi)
	}
	n := len(s.elems)
	// First index whose valid time may reach past lo. An event at c covers
	// the half-open [c, c+1), so its exclusive end is c+1; an interval's
	// end is already exclusive. For sequential intervals ends are
	// non-decreasing, so the predicate is monotone and binary search is
	// sound.
	start := sort.Search(n, func(i int) bool { return exclusiveEnd(s.elems[i]) > lo })
	var out []*element.Element
	touched := 0
	for i := start; i < n; i++ {
		e := s.elems[i]
		touched++
		if e.VT.Start() >= hi {
			break
		}
		if e.Current() && validAtRange(e, lo, hi) {
			out = append(out, e)
		}
	}
	return out, touched + 1 // +1 accounts for the binary-search probe cost
}

// Rollback binary-searches the tt order (shared with arrival order),
// skipping sealed runs that were wholly dead by tt.
func (s *VTLogStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	n := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].TTStart > tt })
	if len(s.runs) == 0 {
		var out []*element.Element
		for _, e := range s.elems[:n] {
			if e.PresentAt(tt) {
				out = append(out, e)
			}
		}
		return out, n
	}
	return rollbackWithRuns(s.elems, s.runs, tt, n)
}
