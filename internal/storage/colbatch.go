package storage

// Columnar batch reading: stream a store's extension as vec.Batch
// struct-of-arrays without materializing elements row by row. Sealed
// delta-encoded runs (compact.go) decode straight into the batch's
// int64 columns — one run is exactly one batch — and the run envelopes
// double as zone maps, so whole batches are skipped before a single
// varint is read. The unsealed tail and non-log stores fall back to
// gathering the columns from the elements in BatchSize chunks.

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

// BatchReader streams a store's elements as columnar batches in arrival
// (ES) order — the same order Elements returns, so batch consumers see
// the exact row order the reference engine does. Construct with
// NewBatchReader, optionally narrow with the Set* methods, then call
// Next until it reports false.
type BatchReader struct {
	elems []*element.Element
	runs  []runMeta
	event bool

	// Zone-map pruning knobs.
	hasVT       bool
	vtLo, vtHi  chronon.Chronon
	currentOnly bool
	asOf        bool
	tt          chronon.Chronon

	ri, pos int
	skipped int

	// What Advance stopped at, for Load: a sealed run, or the flat chunk
	// elems[flatLo:flatHi] when cur is nil.
	cur            *runMeta
	flatLo, flatHi int
}

// Unit is what Advance stopped at: one sealed run or one chunk of unsealed
// elements — exactly what the next Load decodes into a batch.
type Unit struct {
	// Run is the sealed run's ordinal in the store, -1 for a flat chunk.
	Run int
	// Closed is how many of the run's elements closed since it was sealed.
	Closed int
	// Stable marks a sealed run read current-only and lying wholly inside
	// the valid-time window (or read with none): what it contributes to a
	// fold over valid time is then a function of (Run, Closed) alone, for
	// as long as the store keeps its runs — the clamp cannot cut it and
	// closes are monotone.
	Stable bool
}

// NewBatchReader builds a reader over st. event marks an event-stamped
// relation: packed runs store vt⊣ = vt⊢ for events, so the reader
// rewrites the column to the exclusive vt⊢+1 every operator expects.
func NewBatchReader(st Store, event bool) *BatchReader {
	r := &BatchReader{event: event}
	switch s := st.(type) {
	case *TTLogStore:
		r.elems, r.runs = s.elems, s.runs
	case *VTLogStore:
		r.elems, r.runs = s.elems, s.runs
	default:
		r.elems = Elements(st)
	}
	return r
}

// SetVTWindow prunes runs whose valid-time envelope misses [lo, hi).
func (r *BatchReader) SetVTWindow(lo, hi chronon.Chronon) {
	r.hasVT, r.vtLo, r.vtHi = true, lo, hi
}

// SetCurrentOnly prunes runs whose every element has closed, whether
// before sealing or since — closed elements never reopen, so no row in
// them can be current.
func (r *BatchReader) SetCurrentOnly() { r.currentOnly = true }

// SetAsOf prunes runs whose existence-interval envelope misses tt. The
// envelope is safe: tt⊢ is immutable and a run with any open element
// seals with maxTTEnd = Forever.
func (r *BatchReader) SetAsOf(tt chronon.Chronon) { r.asOf, r.tt = true, tt }

// Skipped reports how many sealed runs the zone maps pruned.
func (r *BatchReader) Skipped() int { return r.skipped }

func (r *BatchReader) skipRun(run *runMeta) bool {
	if r.hasVT && (run.vtLo >= r.vtHi || run.vtHi <= r.vtLo) {
		return true
	}
	if r.currentOnly && !run.live() {
		return true
	}
	if r.asOf && (run.ttLo > r.tt || run.maxTTEnd <= r.tt) {
		return true
	}
	return false
}

// decodeRun fills b from a sealed run's packed columns. tt⊣ is the one
// column that can go stale after sealing (copy-on-close deletes swap in
// closed clones), so a run that has seen a close since re-gathers it from
// the live rows; every other run decodes exactly as sealed.
func (r *BatchReader) decodeRun(run *runMeta, b *vec.Batch) error {
	n := run.n
	if err := DecodeRunColumns(run.packed, n,
		b.TTStart[:n], b.TTEnd[:n], b.VTStart[:n], b.VTEnd[:n]); err != nil {
		return err
	}
	els := r.elems[run.start : run.start+n]
	b.N, b.Elems = n, els
	if r.event {
		for i := 0; i < n; i++ {
			b.VTEnd[i] = b.VTStart[i] + 1
		}
	}
	if run.closed > 0 {
		for i, e := range els {
			b.TTEnd[i] = int64(e.TTEnd)
		}
	}
	return nil
}

// fillBatch gathers columns from materialized elements (unsealed tail,
// heap and tt-log tails, indexed stores).
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
// knows a sealed run's contribution (Unit.Stable) advances past it for the
// price of this metadata probe; otherwise Load produces the batch.
func (r *BatchReader) Advance() (Unit, bool) {
	for r.pos < len(r.elems) {
		if r.ri < len(r.runs) && r.pos == r.runs[r.ri].start {
			run := &r.runs[r.ri]
			r.ri++
			r.pos = run.start + run.n
			if r.skipRun(run) {
				r.skipped++
				continue
			}
			r.cur = run
			return Unit{
				Run: r.ri - 1, Closed: run.closed,
				Stable: r.currentOnly && !r.asOf && (!r.hasVT || (r.vtLo <= run.vtLo && run.vtHi <= r.vtHi)),
			}, true
		}
		// Flat region: up to the next sealed run (there is none once ri
		// is exhausted — runs cover a prefix), in BatchSize chunks.
		end := len(r.elems)
		if r.ri < len(r.runs) && r.runs[r.ri].start < end {
			end = r.runs[r.ri].start
		}
		n := end - r.pos
		if n > vec.BatchSize {
			n = vec.BatchSize
		}
		r.cur, r.flatLo, r.flatHi = nil, r.pos, r.pos+n
		r.pos += n
		return Unit{Run: -1}, true
	}
	return Unit{}, false
}

// Load fills b with the unit the last Advance stopped at.
func (r *BatchReader) Load(b *vec.Batch) error {
	if r.cur != nil {
		return r.decodeRun(r.cur, b)
	}
	fillBatch(b, r.elems[r.flatLo:r.flatHi], r.event)
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
	switch s := st.(type) {
	case *TTLogStore:
		return covered(s.runs), len(s.runs)
	case *VTLogStore:
		return covered(s.runs), len(s.runs)
	}
	return 0, 0
}
