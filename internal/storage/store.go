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
	"math"

	"repro/internal/chronon"
	"repro/internal/element"
)

// Kind identifies a physical organization. The constants are declared along
// the chain general → tt-ordered → vt-ordered: each promises what the one
// before it does and one order more, so k1 < k2 means k2 is the stricter label
// (RunStore.Retype).
type Kind uint8

const (
	// Heap stores elements in arrival order and assumes nothing: every
	// query scans, pruned only by what the chunks observed of themselves.
	// This is the only safe organization for a general temporal relation
	// without auxiliary indexes.
	Heap Kind = iota
	// TTOrdered keeps elements ordered by insertion transaction time
	// (which the engine produces naturally): rollback queries binary-
	// search the prefix; valid-time queries still scan.
	TTOrdered
	// VTOrdered additionally relies on a declared non-decreasing
	// specialization: elements arrive in valid-time order, so the store
	// is simultaneously tt- and vt-ordered and valid-time queries
	// binary-search. Interval relations additionally need sequentiality
	// (non-overlap) for point lookups to be complete; the label enforces
	// its consequence the search relies on, non-decreasing ends.
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
	// Insert appends a copy of a newly stored element: the store keeps
	// nothing of the element it is handed, which stays the caller's to
	// edit or reuse. Elements must arrive in
	// non-decreasing tt⊢ order (the engine's natural order); VTOrdered
	// additionally requires non-decreasing valid-time order and returns an
	// error, storing nothing, when the assumption its specialization
	// promised is broken. A relation's own store (relation.Relation.Store)
	// is inserted into by the relation alone, which drops a refusing label
	// until the element is admitted.
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
	// Replace substitutes repl for old (matched by surrogate and tt⊣). The
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

// RunStore is the one sequence-backed store: the chunked element sequence
// (seq.go) under a label. The kind says which orders every stored element is
// known to keep — Heap none, TTOrdered arrival order = tt⊢ order, VTOrdered
// additionally valid-time order, the paper's append-only relation "that can
// support historical (as well as transaction time) queries" — and so which
// promise Insert enforces and which access method a query may take: binary
// search where an order holds, zone-map scan where it does not. A more
// general organization is the same sequence with a promise dropped (§3.2),
// which is what Retype does. Len, Scan and Replace are the sequence's.
type RunStore struct {
	seq
}

// NewHeap returns an empty store that assumes nothing.
func NewHeap() *RunStore { return &RunStore{seq{kind: Heap}} }

// NewTTLog returns an empty tt-ordered log store.
func NewTTLog() *RunStore { return &RunStore{seq{kind: TTOrdered}} }

// NewVTLog returns an empty vt-ordered log store.
func NewVTLog() *RunStore { return &RunStore{seq{kind: VTOrdered}} }

// Kind reports the organization.
func (s *RunStore) Kind() Kind { return s.kind }

// breaks reports the promise of organization k that e, stored right after
// last, would break; nil when it keeps them all.
func (k Kind) breaks(last, e *element.Element) error {
	switch {
	case k == TTOrdered && e.TTStart < last.TTStart:
		return fmt.Errorf("storage: tt-ordered insert out of order (%v after %v)",
			e.TTStart, last.TTStart)
	case k == VTOrdered && e.TTStart < last.TTStart:
		return fmt.Errorf("storage: vt-ordered insert out of tt order (%v after %v)",
			e.TTStart, last.TTStart)
	case k == VTOrdered && e.VT.Start() < last.VT.Start():
		return fmt.Errorf("storage: vt-ordered insert out of vt order (%v after %v); "+
			"the non-decreasing declaration is violated", e.VT.Start(), last.VT.Start())
	case k == VTOrdered && exclusiveEnd(e) < exclusiveEnd(last):
		// The valid-time search (vtRangeOrdered, BatchReader.SeekVT) finds the
		// first element reaching past lo by its end, so ends must be ordered
		// too: what sequential intervals promise and events keep by themselves.
		return fmt.Errorf("storage: vt-ordered insert out of vt order (ends at %v after %v); "+
			"the sequential declaration is violated", exclusiveEnd(e), exclusiveEnd(last))
	}
	return nil
}

// Admits reports why Insert would refuse e — the promise of the label that e,
// stored next, would break, or the store being a snapshot — and nil when
// Insert would store it.
func (s *RunStore) Admits(e *element.Element) error {
	if s.frozen {
		return errFrozenInsert
	}
	if s.kind != Heap && s.n > 0 {
		var last element.Element
		s.StampAt(s.n-1, &last)
		return s.kind.breaks(&last, e)
	}
	return nil
}

// Insert appends a copy of the element into the columns of the tail chunk
// (columns.go), verifying the orders the kind promises and failing loudly
// when a declaration was wrong. The store keeps nothing of e itself.
func (s *RunStore) Insert(e *element.Element) error {
	if err := s.Admits(e); err != nil {
		return err
	}
	s.push(e)
	return nil
}

// errFrozenRetype rejects re-labelling a snapshot.
var errFrozenRetype = fmt.Errorf("storage: retype of a frozen snapshot")

// Retype re-labels the store in place: same chunks, same sealed runs, same
// close counts. Dropping a promise is O(1) and cannot fail. Adding one
// verifies, in one pass that allocates nothing, exactly the order Insert
// would have enforced had the store carried the label all along, and refuses
// with the error that Insert would have returned — store unchanged — when the
// history breaks it. A frozen snapshot refuses both: its label is part of the
// header it copied.
func (s *RunStore) Retype(k Kind) error {
	if s.frozen {
		return errFrozenRetype
	}
	if k > s.kind {
		var last, e element.Element
		for i := range s.n {
			s.StampAt(i, &e)
			if i > 0 {
				if err := k.breaks(&last, &e); err != nil {
					return err
				}
			}
			last = e
		}
	}
	s.kind = k
	return nil
}

// Snapshot shares every chunk, O(1); the label and the sealed runs carry
// over, so the published read path keeps every access method.
func (s *RunStore) Snapshot() Store { return &RunStore{s.snapshot()} }

// Timeslice binary-searches the valid-time order where it holds and scans
// otherwise. It reads its instant alone, so an event stamped at any chronon
// up to math.MaxInt64 is found at its own.
func (s *RunStore) Timeslice(vt chronon.Chronon) ([]*element.Element, int) {
	a, touched := ValidAnswer(s, vt, vt)
	return a.Elements(), touched
}

// VTRange on the vt-ordered log binary-searches for the first element that
// could intersect [lo, hi) and walks forward until starts pass hi. For
// interval elements the walk starts at the beginning of the run of intervals
// that may still cover lo; with a sequential (non-overlapping) relation that
// run has length ≤ 1, keeping the touched count near the answer size. The
// other organizations scan, with every full chunk's zone map to prune on — a
// chunk whose valid-time envelope misses [lo, hi), or that holds no current
// element, is skipped at the cost of one metadata probe.
func (s *RunStore) VTRange(lo, hi chronon.Chronon) ([]*element.Element, int) {
	if hi == math.MinInt64 { // no chronon lies before it, and hi−1 would wrap
		return nil, 0
	}
	a, touched := ValidAnswer(s, lo, hi-1)
	return a.Elements(), touched
}

// Rollback on the logs binary-searches for the prefix with tt⊢ ≤ tt and
// filters it for elements still present at tt; the heap does not assume tt
// order and filters everything. Sealed runs whose every element was already
// closed by tt are skipped for one metadata probe each.
func (s *RunStore) Rollback(tt chronon.Chronon) ([]*element.Element, int) {
	a, touched := RollbackAnswer(s, tt)
	return a.Elements(), touched
}

// Pushdown answers the valid-time window [vtLo, vtLast], inclusive, of a
// relation whose declared bounds confine it to the transaction-time window
// [lo, hi]: it walks the elements with lo ≤ tt⊢ ≤ hi, found on the logs by
// binary search on the insertion order — the touched count is the window
// size plus the probe — and on the heap by filtering everything, keeping
// the current ones valid in [vtLo, vtLast]. This is the access path that
// bounded specializations unlock: a declared lo ≤ vt − tt ≤ hi turns a
// valid-time predicate into exactly such a transaction-time window.
func (s *RunStore) Pushdown(lo, hi, vtLo, vtLast chronon.Chronon) (Answer, int) {
	from, to, touched := 0, s.n, s.n
	if s.kind != Heap {
		from, to = s.SearchTT(lo, true), s.SearchTT(hi, false)
		touched = 1 + to - from
	}
	var a Answer
	for i := from; i < to; {
		k := i / runSize
		c, end := s.chunk(k), min(to, (k+1)*runSize)
		sp := s.span(k)
		sp.windowCols(c, i%runSize, end-k*runSize, lo, hi, vtLo, vtLast)
		a.keep(&sp)
		i = end
	}
	return a, touched
}

// windowCols is Pushdown's column filter (columns.go): the slots of
// [from, to) with lo ≤ tt⊢ ≤ hi, current and valid in [vtLo, vtLast].
//
//go:noinline
func (sp *Span) windowCols(c *chunk, from, to int, lo, hi, vtLo, vtLast chronon.Chronon) {
	col := c.col
	for j := from; j < to; j++ {
		if tts := col.ttStart[j]; tts < lo || tts > hi ||
			c.ttEnd[j] != chronon.Forever || col.vtLo[j] > vtLast || c.vtLastAt(j) < vtLo {
			continue
		}
		sp.take(j)
	}
}
