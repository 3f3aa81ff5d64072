package storage

// Columnar batch reading: stream a store's extension a chunk at a time, in
// arrival order. Every full chunk is pruned on its zone map (seq.go) before
// an element is visited, and reports its lifetime close count, which is what
// lets the aggregate path keep a chunk's contribution across writes
// elsewhere. A unit the reader stops at — a full chunk or the tail still
// filling — is folded where it lies, from its columns (Cols). Load gathers a
// unit into the int64 columns of a vec.Batch instead, and Rows materializes
// it, for the folds that need rows. Where the store's order bounds a query
// (SeekVT, SeekTT), the reader starts at the chunk a binary search finds and
// stops where the order says nothing further can match, so the chunks
// outside cost not even a probe.

import (
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/vec"
)

// BatchReader streams a store's elements a chunk at a time in arrival
// (ES) order — the same order Elements returns, so consumers see the exact
// row order the reference engine does. Construct with NewBatchReader,
// optionally narrow with the Set* and Seek* methods, then call Advance
// until it reports false and fold each unit where it lies, from its Cols.
// Load and Next gather a unit into a columnar batch instead; outside tests
// only the benchmark module's per-layer mirror calls them.
type BatchReader struct {
	s     seq
	kind  Kind
	event bool

	// Zone-map pruning knobs.
	hasVT       bool
	vtLo, vtHi  chronon.Chronon
	currentOnly bool
	asOf        bool
	tt          chronon.Chronon

	next    int // the chunk the next Advance looks at
	end     int // the chunk Advance stops before
	skipped int

	// The view Cols returns, its Load (slot, bound once), and the one
	// version Load materializes a slot into, reused from unit to unit.
	view    vec.Cols
	load    func(int) *element.Element
	scratch slab

	// The unit Rows materializes a chunk into, reused from unit to unit.
	rows    slab
	rowPtrs []*element.Element
}

// Unit is what Advance stopped at: one chunk of the sequence — a full chunk
// or the tail still filling — exactly what the next Load gathers into a
// batch and Rows yields.
type Unit struct {
	// Run is the chunk's ordinal in the store, -1 for the partial tail.
	Run int
	// Closed is how many of the chunk's elements have ever been closed.
	Closed int
	// Stable marks a full chunk read current-only that no clamp can cut —
	// read with none, or with its envelope inside the window: what it
	// contributes to a fold over valid time is then a function of (Run,
	// Closed) alone, for as long as the store keeps its positions — nothing
	// is appended to it and closes are monotone.
	Stable bool
	// Cut marks a full chunk read current-only whose envelope the clamp
	// crosses: what it contributes is its Stable contribution (the same
	// function of Run and Closed) with the windows outside the clamp taken
	// away.
	Cut bool
	// VTLo and VTLast are a full chunk's valid-time envelope, inclusive:
	// every element it holds is valid somewhere inside it.
	VTLo, VTLast chronon.Chronon
}

// NewBatchReader builds a reader over st. event marks an event-stamped
// relation, whose vt⊣ column Load fills with the exclusive vt⊢+1 every
// operator expects.
func NewBatchReader(st Store, event bool) *BatchReader {
	s := seqOf(st)
	return &BatchReader{s: *s, kind: st.Kind(), event: event, end: s.chunks()}
}

// Reset readies the reader to read its store again from the first chunk,
// with no narrowing and nothing skipped, keeping what it has allocated: its
// Load binding and its scratch. A caller that folds several stretches of one
// view resets one reader between them.
func (r *BatchReader) Reset() {
	*r = BatchReader{s: r.s, kind: r.kind, event: r.event, end: r.s.chunks(),
		load: r.load, scratch: r.scratch, rows: r.rows, rowPtrs: r.rowPtrs}
}

// SeekVT bounds the reader by the vt-ordered log's order to the chunks that
// can hold an element valid during [lo, hi): it starts at the chunk of the
// first element whose valid time reaches past lo — vtRangeOrdered's search —
// and stops before the first chunk that begins at or past hi, where every
// element starts at or past hi. On the other organizations, which promise no
// valid-time order, it does nothing. It narrows where the reader goes, not
// what a chunk yields: pair it with SetVTWindow. Call it before Advance.
func (r *BatchReader) SeekVT(lo, hi chronon.Chronon) {
	if r.kind != VTOrdered {
		return
	}
	r.bound(r.s.searchVTEnd(lo), r.s.searchVTStart(hi))
}

// SeekTT bounds the reader by the logs' transaction-time order to the chunks
// that hold an element with lo ≤ tt⊢ ≤ hi — the window a tt-window pushdown
// turns a valid-time clamp into. On the heap, which promises no order, it does
// nothing. Call it before Advance.
func (r *BatchReader) SeekTT(lo, hi chronon.Chronon) {
	if r.kind == Heap {
		return
	}
	r.bound(r.s.SearchTT(lo, true), r.s.SearchTT(hi, false))
}

// bound narrows the reader to the chunks that hold elements [from, to),
// counting the chunks it gives up as skipped.
func (r *BatchReader) bound(from, to int) {
	next, end := max(r.next, from/runSize), min(r.end, (to+runSize-1)/runSize)
	if to <= from || end < next {
		end = next
	}
	r.skipped += (r.end - r.next) - (end - next)
	r.next, r.end = next, end
}

// SetVTWindow prunes full chunks whose valid-time envelope misses [lo, hi).
func (r *BatchReader) SetVTWindow(lo, hi chronon.Chronon) {
	r.hasVT, r.vtLo, r.vtHi = true, lo, hi
}

// SetCurrentOnly prunes full chunks whose every element has closed — closed
// elements never reopen, so no row in them can be current.
func (r *BatchReader) SetCurrentOnly() { r.currentOnly = true }

// SetAsOf prunes full chunks that hold nothing present at tt (chunk.deadAt).
func (r *BatchReader) SetAsOf(tt chronon.Chronon) { r.asOf, r.tt = true, tt }

// Skipped reports how many chunks the reader passes over without yielding
// them: those the zone maps pruned, and those a seek's bounds leave out.
func (r *BatchReader) Skipped() int { return r.skipped }

// skipRun reports whether full chunk c holds no row the reader wants.
func (r *BatchReader) skipRun(c *chunk) bool {
	if r.hasVT && c.vtMisses(r.vtLo, r.vtHi) {
		return true
	}
	if r.currentOnly && !c.live() {
		return true
	}
	return r.asOf && c.deadAt(r.tt)
}

// Advance moves to the next unit the zone maps did not prune, without
// gathering it, and reports whether there was one. A caller that already
// knows a full chunk's contribution (Unit.Stable) advances past it for the
// price of this metadata probe; otherwise Cols, Load or Rows produces its
// rows.
func (r *BatchReader) Advance() (Unit, bool) {
	for r.next < r.end {
		k := r.next
		r.next++
		if !r.s.full(k) {
			return Unit{Run: -1}, true
		}
		c := r.s.chunk(k)
		if r.skipRun(c) {
			r.skipped++
			continue
		}
		current := r.currentOnly && !r.asOf
		within := !r.hasVT || c.vtWithin(r.vtLo, r.vtHi)
		return Unit{Run: k, Closed: c.closes, Stable: current && within, Cut: current && !within, VTLo: c.vtLo, VTLast: c.vtLast}, true
	}
	return Unit{}, false
}

// Group reports whether the len(units) chunks from the one the next Advance
// looks at form an aligned group whose contribution a caller may already
// know: every one full, inside the reader's bounds, and either entirely
// closed (Advance would prune it; it contributes nothing) or live and met by
// the clamp — Stable, or Cut when the clamp crosses it. It fills units with
// them — an entirely closed chunk as a Unit neither Stable nor Cut — and
// moves nothing; Pass then steps over them. A live chunk the clamp misses
// turns the group down: Advance prunes it for the price of a probe.
// len(units) must be the same at every call.
func (r *BatchReader) Group(units []Unit) bool {
	n, k := len(units), r.next
	if k%n != 0 || k+n > r.end || !r.s.full(k+n-1) || !r.currentOnly || r.asOf {
		return false
	}
	for i := range units {
		c := r.s.chunk(k + i)
		live, within := c.live(), true
		if live && r.hasVT {
			if c.vtMisses(r.vtLo, r.vtHi) {
				return false
			}
			within = c.vtWithin(r.vtLo, r.vtHi)
		}
		units[i] = Unit{Run: k + i, Closed: c.closes, Stable: live && within, Cut: live && !within, VTLo: c.vtLo, VTLast: c.vtLast}
	}
	return true
}

// Pass moves the reader past the group the last Group filled units with,
// counting its entirely closed chunks as skipped, as Advance would have.
func (r *BatchReader) Pass(units []Unit) {
	r.next += len(units)
	for _, u := range units {
		if !u.Stable && !u.Cut {
			r.skipped++
		}
	}
}

// Cols returns the unit the last Advance stopped at as a view of its
// columns. The view is the reader's own: the next Cols overwrites it, and
// its Load reads the unit the last Advance stopped at. Nothing is copied,
// and nothing allocated but Load's binding and its one scratch version, once
// a reader.
func (r *BatchReader) Cols() *vec.Cols {
	k := r.next - 1
	if r.load == nil {
		r.load = r.slot
	}
	r.view = r.s.chunk(k).view(r.s.slots(k), r.load)
	return &r.view
}

// slot materializes slot j of the chunk the last Advance stopped at into the
// reader's scratch version, which the next call overwrites: the view's Load.
func (r *BatchReader) slot(j int) *element.Element {
	return r.scratch.one(r.s.chunk(r.next-1), j)
}

// Rows returns the elements of the unit the last Advance stopped at,
// materialized into the reader's one scratch unit, which the next Rows
// overwrites: what a row-at-a-time fold reads, and what Load hands a batch.
func (r *BatchReader) Rows() []*element.Element {
	k := r.next - 1
	if r.rowPtrs == nil {
		r.rowPtrs = make([]*element.Element, runSize)
	}
	out := r.rowPtrs[:r.s.slots(k)]
	r.rows.fill(r.s.chunk(k), out)
	return out
}

// Load fills b with the unit the last Advance stopped at: its rows, and its
// timestamp columns gathered from the chunk's.
func (r *BatchReader) Load(b *vec.Batch) error {
	els := r.Rows()
	b.N, b.Elems = len(els), els
	c := r.s.chunk(r.next - 1)
	for j := range els {
		b.TTStart[j] = int64(c.col.ttStart[j])
		b.TTEnd[j] = int64(c.ttEnd[j])
		b.VTStart[j] = int64(c.col.vtLo[j])
		if r.event {
			b.VTEnd[j] = b.VTStart[j] + 1
		} else {
			b.VTEnd[j] = int64(c.col.end(j))
		}
	}
	return nil
}

// Next fills b with the next batch, reporting whether one was produced.
func (r *BatchReader) Next(b *vec.Batch) (bool, error) {
	if _, ok := r.Advance(); !ok {
		return false, nil
	}
	return true, r.Load(b)
}

// SealedInfo reports how many leading elements sit in sealed runs and
// how many runs hold them. O(1).
func SealedInfo(st Store) (sealed, runs int) {
	s := seqOf(st)
	return s.sealed * runSize, s.sealed
}
