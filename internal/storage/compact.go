package storage

import (
	"context"
	"encoding/binary"

	"repro/internal/chronon"
)

// Class-scheduled compaction measures what a sealed layout would cost. A
// chunk answers from its columns whether or not it is measured: every full
// chunk carries its zone map from the moment it fills (seq.go) — the
// valid-time envelope, the liveness count and the transaction-time facts
// the rollback and as-of skips read — so measuring writes nothing any query
// reads. What Compact does is count: it advances the sealed prefix over the
// full chunks and adds to the store's packed total the byte size the
// chunk's timestamps take delta-encoded column by column, the
// representation a disk-resident layout would store. StoreBytes reports
// that total for sealed history, making the space side of the paper's
// append-only claim measurable: an ordered, slowly-varying timestamp column
// delta-encodes to a small fraction of its flat width.
//
// Compaction is scheduled by class: the catalog's advisor loop measures only
// relations whose live organization is the vt-ordered log — the append-only
// designs of §3.1/§3.2, where the prefix is stable by promise. A chunk's
// columns are another matter: every chunk on every label is columns from its
// first slot (columns.go).

// packedSize is the byte size of the (tt⊢, tt⊣, vt⊢, vt⊣) columns of the
// first n slots of c, delta-encoded: per column, the first value is absolute
// and the rest are zigzag-varint deltas from their predecessor. Columnar
// order keeps each delta stream homogeneous — the tt column of a log is
// sorted, so its deltas are small and positive.
func (c *chunk) packedSize(n int) int {
	col := c.col
	vtEnd := col.vtHi
	if col.event {
		vtEnd = col.vtLo[:]
	}
	var tmp [binary.MaxVarintLen64]byte
	size := 0
	for _, stamps := range [4][]chronon.Chronon{col.ttStart[:n], c.ttEnd[:n], col.vtLo[:n], vtEnd[:n]} {
		prev := int64(0)
		for _, v := range stamps {
			size += binary.PutVarint(tmp[:], int64(v)-prev)
			prev = int64(v)
		}
	}
	return size
}

// seal measures as many full chunks as the unsealed stretch allows into the
// packed total, returning how many elements were newly sealed. The tail
// shorter than runSize stays unsealed — it is still growing. It writes only
// the live header; a frozen snapshot refuses, it carries the totals it was
// taken with.
func (s *seq) seal() int {
	if s.frozen {
		return 0
	}
	was := s.sealed
	for ; s.full(s.sealed); s.sealed++ {
		s.packedBytes += int64(s.chunk(s.sealed).packedSize(runSize))
	}
	return (s.sealed - was) * runSize
}

// Compact seals full runs over the stable prefix of a log and returns how
// many elements it newly measured. The heap measures nothing. Runs measured
// before a Retype dropped the promise stay counted.
func (s *RunStore) Compact() int {
	if s.kind == Heap {
		return 0
	}
	return s.seal()
}

// rollback is the log organizations' rollback: binary search for the prefix
// with tt⊢ ≤ tt, then a filter of it.
func (s *seq) rollback(tt chronon.Chronon) (Answer, int) {
	return s.presentIn(s.SearchTT(tt, false), tt)
}

// presentIn filters the first n elements, chunk by chunk, for those present
// at tt. A full chunk whose zone map says nothing in it is present at tt —
// none of its elements had begun by tt, or every one had been closed by it —
// is skipped for one probe.
func (s *seq) presentIn(n int, tt chronon.Chronon) (Answer, int) {
	var a Answer
	touched := 0
	for k := 0; k*runSize < n; k++ {
		c := s.chunk(k)
		if s.full(k) && c.deadAt(tt) {
			touched++
			continue
		}
		end := min(n-k*runSize, s.slots(k))
		touched += end
		sp := s.span(k)
		sp.presentCols(c, end, tt)
		a.keep(&sp)
	}
	return a, touched
}

// vtScan is the valid-time scan for stores with no useful vt order (the
// heap and the tt log): full chunks whose valid-time envelope misses the
// inclusive [lo, last], or that hold no current element, are skipped for one
// probe; everything else is visited.
func (s *seq) vtScan(lo, last chronon.Chronon) (Answer, int) {
	var a Answer
	touched := 0
	for k := range s.chunks() {
		c := s.chunk(k)
		if s.full(k) && (!c.live() || c.vtOutside(lo, last)) {
			touched++
			continue
		}
		m := s.slots(k)
		touched += m
		sp := s.span(k)
		sp.validCols(c, 0, m, lo, last)
		a.keep(&sp)
	}
	return a, touched
}

// vtRangeOrdered is the valid-time search of the vt-ordered log over the
// inclusive [lo, last]. It binary-searches for the first element whose
// valid time reaches lo — an event's last chronon is itself, an interval's
// its end less one, and for sequential intervals ends are non-decreasing, so
// the predicate is monotone — then walks forward until starts pass last,
// skipping any full chunk that holds no current element and stopping early
// when a chunk's minimum start already passes last. The probe counts as one
// touch.
func (s *seq) vtRangeOrdered(lo, last chronon.Chronon) (Answer, int) {
	start := s.searchVTEnd(lo)
	var a Answer
	touched := 1
	for k := start / runSize; k < s.chunks(); k++ {
		c := s.chunk(k)
		if s.full(k) {
			if c.vtLo > last {
				return a, touched
			}
			if !c.live() {
				touched++
				continue
			}
		}
		// The walk's stop: the first slot from `from` that starts past last,
		// found in the column; every slot before it is touched, and it is
		// too.
		from, m := max(start-k*runSize, 0), s.slots(k)
		to := from
		for to < m && c.col.vtLo[to] <= last {
			to++
		}
		touched += to - from
		if to < m {
			touched++
		}
		sp := s.span(k)
		sp.validCols(c, from, to, lo, last)
		a.keep(&sp)
		if to < m {
			return a, touched
		}
	}
	return a, touched
}

// AsOf answers the bitemporal query over st: the elements present at tt and
// valid at some chronon of the inclusive [lo, last] — an instant vt is
// [vt, vt] — in arrival order, and the number touched: elements visited
// plus one probe per pruned chunk. No organization orders both dimensions,
// so it scans, but only the chunks the query can touch: a full chunk whose
// valid-time envelope misses the window, or that holds nothing present at
// tt, is skipped on every organization, and where arrival order is tt⊢
// order the scan ends at the first chunk that begins after tt. It is
// cooperative: it polls ctx once a chunk.
func AsOf(ctx context.Context, st Store, lo, last, tt chronon.Chronon) (Answer, int, error) {
	s, ttOrdered := seqOf(st), st.Kind() != Heap
	var a Answer
	touched := 0
	for k := range s.chunks() {
		// Where arrival order is tt⊢ order a chunk's first tt⊢ is its
		// least: a full chunk's zone map has it, so a pruned chunk costs
		// no read of its columns.
		c, full := s.chunk(k), s.full(k)
		if ttOrdered && (full && c.ttLo > tt || !full && c.col.ttStart[0] > tt) {
			touched++
			break
		}
		if err := ctx.Err(); err != nil {
			return Answer{}, touched, err
		}
		if full && (c.vtOutside(lo, last) || c.deadAt(tt)) {
			touched++
			continue
		}
		m := s.slots(k)
		touched += m
		sp := s.span(k)
		sp.asOfCols(c, m, lo, last, tt)
		a.keep(&sp)
	}
	return a, touched, nil
}

// Compacter is implemented by stores that can seal runs.
type Compacter interface {
	// Compact seals full runs over the stable prefix and returns how many
	// elements were newly sealed.
	Compact() int
}

// CompactionStats reports a store's sealing state.
type CompactionStats struct {
	Runs        int   // sealed runs
	Sealed      int   // elements inside sealed runs
	PackedBytes int64 // delta-encoded size of the sealed timestamp columns, measured at seal
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
