package storage

import (
	"context"
	"encoding/binary"
	"hash/crc32"

	"repro/internal/chronon"
	"repro/internal/element"
)

// runCastagnoli checksums sealed-run images (same polynomial as the WAL).
var runCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Class-scheduled compaction: the log organizations can seal their stable
// prefix into fixed-size runs. A sealed run carries
//
//   - the transaction-time envelope (min/max tt⊢, max tt⊣), which rollback
//     and the as-of batch reader use as a zone map — a run wholly dead at the
//     instant costs one metadata probe instead of runSize element visits
//     (the valid-time envelope and the liveness count need no seal: every
//     full chunk carries them from the moment it fills, seq.go); and
//
//   - a delta-encoded columnar image of the run's timestamps (packed), the
//     representation a disk-resident layout would store. Its byte size is
//     what StoreBytes reports for sealed history, making the space side of
//     the paper's append-only claim measurable: an ordered, slowly-varying
//     timestamp column delta-encodes to a small fraction of its flat width.
//
// Sealing never rewrites elements, so queries over a compacted store return
// pointer-identical results; only the touched accounting changes. Envelope
// staleness is one-directional by construction: after sealing, an element
// can only move from open to closed (the copy-on-close Replace), which makes
// a recorded maxTTEnd of Forever conservative — a stale run is scanned, never
// wrongly skipped. tt⊢ is immutable, so those bounds stay exact. Each run also counts the
// closes that landed in it since sealing, which is what lets the batch reader
// tell a stale envelope from a fresh one (colbatch.go); what lets the
// aggregate path reuse a chunk's contribution across writes that did not
// touch it is the chunk's lifetime count (seq.go), which sealing leaves alone.
//
// Compaction is scheduled by class: the catalog's advisor loop seals runs
// only on relations whose live organization is the vt-ordered log — the
// append-only designs of §3.1/§3.2, where the prefix is stable by promise.
// General relations are not sealed (no caller reads a packed image there);
// their scans prune on the chunks' own zone maps instead.

// runMeta describes one sealed run — the runSize elements of the chunk it
// hangs off (seq.go).
type runMeta struct {
	ttLo     chronon.Chronon // min tt⊢ (first element; logs are tt-ordered)
	ttHi     chronon.Chronon // max tt⊢ (last element)
	maxTTEnd chronon.Chronon // max tt⊣ at seal time (Forever while any open)
	// closed counts the elements closed since sealing (seq.Replace): zero
	// means the packed tt⊣ column is still exact.
	closed int
	packed []byte // delta-encoded timestamp columns
	sum    uint32 // CRC32C of packed, fixed at seal time
}

// sealRun builds the metadata and packed image for one full run.
func sealRun(run []*element.Element) runMeta {
	r := runMeta{
		ttLo:     run[0].TTStart,
		ttHi:     run[len(run)-1].TTStart,
		maxTTEnd: chronon.MinChronon,
	}
	for _, e := range run {
		r.maxTTEnd = chronon.Max(r.maxTTEnd, e.TTEnd)
	}
	r.packed = packColumns(run)
	r.sum = crc32.Checksum(r.packed, runCastagnoli)
	return r
}

// packColumns delta-encodes the (tt⊢, tt⊣, vt⊢, vt⊣) columns of a run:
// per column, the first value is absolute and the rest are zigzag-varint
// deltas from their predecessor. Columnar order keeps each delta stream
// homogeneous — the tt column of a log is sorted, so its deltas are small
// and positive.
func packColumns(run []*element.Element) []byte {
	cols := [4]func(*element.Element) int64{
		func(e *element.Element) int64 { return int64(e.TTStart) },
		func(e *element.Element) int64 { return int64(e.TTEnd) },
		func(e *element.Element) int64 { return int64(e.VT.Start()) },
		func(e *element.Element) int64 { return int64(e.VT.End()) },
	}
	buf := make([]byte, 0, len(run)*6)
	var tmp [binary.MaxVarintLen64]byte
	for _, col := range cols {
		prev := int64(0)
		for i, e := range run {
			v := col(e)
			d := v - prev
			if i == 0 {
				d = v
			}
			buf = append(buf, tmp[:binary.PutVarint(tmp[:], d)]...)
			prev = v
		}
	}
	return buf
}

// unpackColumns inverts packColumns; n is the run length. It exists to prove
// the packed image is lossless (and to size a future disk format), not to
// serve queries — those read the elements directly.
func unpackColumns(packed []byte, n int) ([][4]int64, error) {
	tts, tte := make([]int64, n), make([]int64, n)
	vts, vte := make([]int64, n), make([]int64, n)
	if err := DecodeRunColumns(packed, n, tts, tte, vts, vte); err != nil {
		return nil, err
	}
	out := make([][4]int64, n)
	for i := range out {
		out[i] = [4]int64{tts[i], tte[i], vts[i], vte[i]}
	}
	return out, nil
}

// seal seals as many full chunks as the unsealed stretch allows, returning
// how many elements were newly sealed. The tail shorter than runSize stays
// unsealed — it is still growing. No snapshot reads the metadata of a chunk
// past its own sealed bound, so the run is written in place; the chunk
// keeps its stamp, and the first close into it copies it. Frozen snapshots
// refuse: they carry the runs they were taken with.
func (s *seq) seal() int {
	if s.frozen {
		return 0
	}
	was := s.sealed
	for ; (s.sealed+1)*runSize <= s.n; s.sealed++ {
		c := s.chunk(s.sealed)
		c.run = sealRun(c.elems[:])
		s.packedBytes += int64(len(c.run.packed))
	}
	return (s.sealed - was) * runSize
}

// Compact seals full runs over the stable prefix of a log. The heap seals
// nothing: a run's tt⊢ envelope is its first and last element, bounds only
// where arrival order is tt order. Runs sealed before a Retype dropped that
// promise stay sealed — each was tt-ordered when it froze and never changes.
func (s *RunStore) Compact() int {
	if s.kind == Heap {
		return 0
	}
	return s.seal()
}

// rollback is the log organizations' rollback: binary search for the prefix
// with tt⊢ ≤ tt, then a filter of it.
func (s *seq) rollback(tt chronon.Chronon) ([]*element.Element, []ChunkSpan, int) {
	return s.presentIn(s.search(func(e *element.Element) bool { return e.TTStart > tt }), tt)
}

// presentIn filters the first n elements, run by run, for those present at
// tt. A sealed run whose recorded maximum tt⊣ is ≤ tt held only elements
// already closed by tt — nothing in it is present — so it is skipped for one
// probe. Every full chunk that supplied a dense stretch of the answer is
// reported as a span, also the one n cuts: a span names the chunk, not the
// slots read.
func (s *seq) presentIn(n int, tt chronon.Chronon) ([]*element.Element, []ChunkSpan, int) {
	var out []*element.Element
	var spans []ChunkSpan
	touched := 0
	for k := 0; k*runSize < n; k++ {
		if k < s.sealed && s.chunk(k).run.maxTTEnd <= tt {
			touched++
			continue
		}
		run := s.run(k)
		if end := n - k*runSize; end < len(run) {
			run = run[:end]
		}
		touched += len(run)
		from := len(out)
		out = appendPresent(out, run, tt)
		if s.full(k) {
			s.chunk(k).span(&spans, k, from, len(out))
		}
	}
	return out, spans, touched
}

// appendPresent appends the elements of run present at tt. The four walks
// (this, appendValid, appendAsOf, appendCurrent) keep their per-element loops
// in functions of their own, called once a visited chunk and never inlined:
// the loop then has a handful of live values whatever the walk around it
// carries. Inlined into a walk that also records spans, the time-slice of a
// 20 k-element relation read +14 % against the walk before spans; out of
// line it reads −15 % (BenchmarkScanGeneral, alternated).
//
//go:noinline
func appendPresent(out, run []*element.Element, tt chronon.Chronon) []*element.Element {
	for _, e := range run {
		if e.PresentAt(tt) {
			out = append(out, e)
		}
	}
	return out
}

// vtScan is the valid-time scan for stores with no useful vt order (the
// heap and the tt log): full chunks whose valid-time envelope misses
// [lo, hi), or that hold no current element, are skipped for one probe;
// everything else is visited, and a full chunk that supplied a dense stretch
// of the answer is reported as a span.
func (s *seq) vtScan(lo, hi chronon.Chronon) ([]*element.Element, []ChunkSpan, int) {
	var out []*element.Element
	var spans []ChunkSpan
	touched := 0
	for k := range s.chunks() {
		c, full := s.chunk(k), s.full(k)
		if full && (!c.live() || c.vtMisses(lo, hi)) {
			touched++
			continue
		}
		run := s.run(k)
		touched += len(run)
		from := len(out)
		out = appendValid(out, run, lo, hi)
		if full {
			c.span(&spans, k, from, len(out))
		}
	}
	return out, spans, touched
}

// appendValid appends the current elements of run valid during [lo, hi).
//
//go:noinline
func appendValid(out, run []*element.Element, lo, hi chronon.Chronon) []*element.Element {
	for _, e := range run {
		if e.Current() && ValidDuring(e, lo, hi) {
			out = append(out, e)
		}
	}
	return out
}

// vtRangeOrdered is the valid-time search of the vt-ordered log. It
// binary-searches for the first element whose valid time may reach past lo
// — an event at c covers [c, c+1), an interval's end is already exclusive,
// and for sequential intervals ends are non-decreasing, so the predicate is
// monotone — then walks forward until starts pass hi, skipping any full
// chunk that holds no current element and stopping early when a chunk's
// minimum start already passes hi. The probe counts as one touch.
func (s *seq) vtRangeOrdered(lo, hi chronon.Chronon) ([]*element.Element, int) {
	start := s.search(func(e *element.Element) bool { return exclusiveEnd(e) > lo })
	var out []*element.Element
	touched := 1
	for k := start / runSize; k < s.chunks(); k++ {
		if c := s.chunk(k); s.full(k) {
			if c.vtLo >= hi {
				return out, touched
			}
			if !c.live() {
				touched++
				continue
			}
		}
		run := s.run(k)
		if from := start - k*runSize; from > 0 {
			run = run[from:]
		}
		for _, e := range run {
			touched++
			if e.VT.Start() >= hi {
				return out, touched
			}
			if e.Current() && ValidDuring(e, lo, hi) {
				out = append(out, e)
			}
		}
	}
	return out, touched
}

// AsOf answers the bitemporal query over st: the elements present at tt and
// valid at vt, in arrival order, with the spans of the full chunks that
// supplied them and the number touched — elements visited plus one probe per
// pruned chunk. No organization orders both dimensions,
// so it scans, but only the chunks the query can touch: a full chunk whose
// valid-time envelope misses vt is skipped on every organization, and where
// arrival order is tt⊢ order the scan ends at the first chunk that begins
// after tt. It is cooperative: it polls ctx once a chunk.
func AsOf(ctx context.Context, st Store, vt, tt chronon.Chronon) ([]*element.Element, []ChunkSpan, int, error) {
	s, ttOrdered := seqOf(st), st.Kind() != Heap
	var out []*element.Element
	var spans []ChunkSpan
	touched := 0
	for k := range s.chunks() {
		c := s.chunk(k)
		if ttOrdered && c.elems[0].TTStart > tt {
			touched++
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, touched, err
		}
		if s.full(k) && c.vtMissesAt(vt) {
			touched++
			continue
		}
		run := s.run(k)
		touched += len(run)
		from := len(out)
		out = appendAsOf(out, run, vt, tt)
		if s.full(k) {
			c.span(&spans, k, from, len(out))
		}
	}
	return out, spans, touched, nil
}

// appendAsOf appends the elements of run present at tt and valid at vt.
//
//go:noinline
func appendAsOf(out, run []*element.Element, vt, tt chronon.Chronon) []*element.Element {
	for _, e := range run {
		if e.PresentAt(tt) && e.ValidAt(vt) {
			out = append(out, e)
		}
	}
	return out
}

// Compacter is implemented by stores that can seal frozen runs.
type Compacter interface {
	// Compact seals full runs over the stable prefix and returns how many
	// elements were newly sealed.
	Compact() int
}

// CompactionStats reports a store's sealing state.
type CompactionStats struct {
	Runs        int   // sealed runs
	Sealed      int   // elements inside sealed runs
	PackedBytes int64 // delta-encoded size of the sealed timestamp columns
}

// Compaction reports the sealing state of st (zero for organizations that
// do not seal). O(1): the sequence keeps the totals.
func Compaction(st Store) CompactionStats {
	s := seqOf(st)
	return CompactionStats{Runs: s.sealed, Sealed: s.sealed * runSize, PackedBytes: s.packedBytes}
}

// flatStampBytes is the uncompacted width of one element's four timestamps.
const flatStampBytes = 4 * 8

// StoreBytes reports the store's timestamp-column footprint in bytes: sealed
// runs cost their delta-encoded size, unsealed elements their flat width.
// This is the byte measure the S6 experiment records per class — it is the
// portion of the layout that physical design actually changes (tuple data is
// organization-independent).
func StoreBytes(st Store) int64 {
	cs := Compaction(st)
	return cs.PackedBytes + int64(st.Len()-cs.Sealed)*flatStampBytes
}
