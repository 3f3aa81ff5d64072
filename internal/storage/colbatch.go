package storage

// Columnar batch reading: stream a store's extension as vec.Batch
// struct-of-arrays without materializing elements row by row. Sealed
// delta-encoded runs (compact.go) decode straight into the batch's
// int64 columns — one run is exactly one batch. Unsealed chunks — the
// tail, and every chunk of a store that does not seal — gather the columns
// from their elements. Every full chunk, sealed or not, is pruned on its
// zone map (seq.go) before a varint is read or an element visited, and
// reports its lifetime close count, which is what lets the aggregate path
// keep a chunk's contribution across writes elsewhere. Where the store's
// order bounds a query (SeekVT, SeekTT), the reader starts at the chunk a
// binary search finds and stops where the order says nothing further can
// match, so the chunks outside cost not even a probe.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/vec"
)

// DecodeRunColumns decodes a packed delta run (packColumns' format) into
// the four timestamp columns in place: per column the first value is
// absolute, the rest zigzag-varint deltas. Each destination slice must
// have length n. It never panics on corrupt input — the fuzz target
// FuzzColumnarRunDecode holds it to that.
func DecodeRunColumns(packed []byte, n int, tts, tte, vts, vte []int64) error {
	if len(tts) < n || len(tte) < n || len(vts) < n || len(vte) < n {
		return fmt.Errorf("storage: decode columns shorter than run length %d", n)
	}
	cols := [4][]int64{tts, tte, vts, vte}
	off := 0
	for c := 0; c < 4; c++ {
		col := cols[c]
		prev := int64(0)
		for i := 0; i < n; i++ {
			d, w := binary.Varint(packed[off:])
			if w <= 0 {
				return fmt.Errorf("storage: truncated packed run (col %d, row %d)", c, i)
			}
			off += w
			if i == 0 {
				prev = d
			} else {
				prev += d
			}
			col[i] = prev
		}
	}
	if off != len(packed) {
		return fmt.Errorf("storage: %d trailing byte(s) in packed run", len(packed)-off)
	}
	return nil
}

// BatchReader streams a store's elements a chunk at a time in arrival
// (ES) order — the same order Elements returns, so consumers see the exact
// row order the reference engine does. Construct with NewBatchReader,
// optionally narrow with the Set* and Seek* methods, then call Advance
// until it reports false and fold each unit's Rows where they lie. Load and
// Next decode a unit into a columnar batch instead; outside tests only the
// benchmark module's per-layer mirror calls them.
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
}

// Unit is what Advance stopped at: one chunk of the sequence — a sealed run,
// a full unsealed chunk, or the tail still filling — exactly what the next
// Load decodes into a batch and Rows yields.
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
// relation: packed runs store vt⊣ = vt⊢ for events, so the reader
// rewrites the column to the exclusive vt⊢+1 every operator expects.
func NewBatchReader(st Store, event bool) *BatchReader {
	s := seqOf(st)
	return &BatchReader{s: *s, kind: st.Kind(), event: event, end: s.chunks()}
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
	r.bound(r.s.search(func(e *element.Element) bool { return exclusiveEnd(e) > lo }),
		r.s.search(func(e *element.Element) bool { return e.VT.Start() >= hi }))
}

// SeekTT bounds the reader by the logs' transaction-time order to the chunks
// that hold an element with lo ≤ tt⊢ ≤ hi — the window a tt-window pushdown
// turns a valid-time clamp into. On the heap, which promises no order, it does
// nothing. Call it before Advance.
func (r *BatchReader) SeekTT(lo, hi chronon.Chronon) {
	if r.kind == Heap {
		return
	}
	r.bound(r.s.search(func(e *element.Element) bool { return e.TTStart >= lo }),
		r.s.search(func(e *element.Element) bool { return e.TTStart > hi }))
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

// SetAsOf prunes sealed runs whose existence-interval envelope misses tt —
// that envelope is computed by the seal. It is safe: tt⊢ is immutable and a
// run with any open element seals with maxTTEnd = Forever.
func (r *BatchReader) SetAsOf(tt chronon.Chronon) { r.asOf, r.tt = true, tt }

// Skipped reports how many chunks the reader passes over without yielding
// them: those the zone maps pruned, and those a seek's bounds leave out.
func (r *BatchReader) Skipped() int { return r.skipped }

// skipRun reports whether full chunk k holds no row the reader wants.
func (r *BatchReader) skipRun(k int, c *chunk) bool {
	if r.hasVT && c.vtMisses(r.vtLo, r.vtHi) {
		return true
	}
	if r.currentOnly && !c.live() {
		return true
	}
	return r.asOf && k < r.s.sealed && (c.run.ttLo > r.tt || c.run.maxTTEnd <= r.tt)
}

// decodeRun fills b from a sealed run's packed columns. tt⊣ is the one
// column that can go stale after sealing (copy-on-close deletes swap in
// closed clones), so a run that has seen a close since re-gathers it from
// the live rows; every other run decodes exactly as sealed.
func (r *BatchReader) decodeRun(c *chunk, b *vec.Batch) error {
	const n = runSize
	if err := DecodeRunColumns(c.run.packed, n,
		b.TTStart[:], b.TTEnd[:], b.VTStart[:], b.VTEnd[:]); err != nil {
		return err
	}
	b.N, b.Elems = n, c.elems[:]
	if r.event {
		for i := 0; i < n; i++ {
			b.VTEnd[i] = b.VTStart[i] + 1
		}
	}
	if c.run.closed > 0 {
		for i, e := range c.elems {
			b.TTEnd[i] = int64(e.TTEnd)
		}
	}
	return nil
}

// fillBatch gathers columns from the elements of an unsealed chunk.
func fillBatch(b *vec.Batch, els []*element.Element, event bool) {
	b.N, b.Elems = len(els), els
	for i, e := range els {
		b.TTStart[i] = int64(e.TTStart)
		b.TTEnd[i] = int64(e.TTEnd)
		vts := int64(e.VT.Start())
		b.VTStart[i] = vts
		if event {
			b.VTEnd[i] = vts + 1
		} else {
			b.VTEnd[i] = int64(e.VT.End())
		}
	}
}

// Advance moves to the next unit the zone maps did not prune, without
// decoding it, and reports whether there was one. A caller that already
// knows a full chunk's contribution (Unit.Stable) advances past it for the
// price of this metadata probe; otherwise Load or Rows produces its rows.
func (r *BatchReader) Advance() (Unit, bool) {
	for r.next < r.end {
		k := r.next
		r.next++
		if !r.s.full(k) {
			return Unit{Run: -1}, true
		}
		c := r.s.chunk(k)
		if r.skipRun(k, c) {
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

// Rows returns the elements of the unit the last Advance stopped at, where
// they lie: what a row-at-a-time consumer folds instead of a Load.
func (r *BatchReader) Rows() []*element.Element { return r.s.run(r.next - 1) }

// Load fills b with the unit the last Advance stopped at.
func (r *BatchReader) Load(b *vec.Batch) error {
	k := r.next - 1
	if k < r.s.sealed {
		return r.decodeRun(r.s.chunk(k), b)
	}
	fillBatch(b, r.s.run(k), r.event)
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
// how many runs hold them, without walking the runs' payloads. O(1).
func SealedInfo(st Store) (sealed, runs int) {
	s := seqOf(st)
	return s.sealed * runSize, s.sealed
}
