package storage

import (
	"context"
	"encoding/binary"

	"repro/internal/chronon"
	"repro/internal/element"
)

// Class-scheduled compaction measures what a sealed layout would cost. A
// chunk answers from its elements whether or not it is sealed: every full
// chunk carries its zone map from the moment it fills (seq.go) — the
// valid-time envelope, the liveness count and the transaction-time facts
// the rollback and as-of skips read — so sealing writes nothing any query
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
// designs of §3.1/§3.2, where the prefix is stable by promise. Turning a full
// chunk into columns is another matter, done on every label as the chunk
// fills (columns.go).

// packedSize is the byte size of the (tt⊢, tt⊣, vt⊢, vt⊣) columns of the
// first n slots of c, in either form, delta-encoded: per column, the first
// value is absolute and the rest are zigzag-varint deltas from their
// predecessor. Columnar order keeps each delta stream homogeneous — the tt
// column of a log is sorted, so its deltas are small and positive.
func (c *chunk) packedSize(n int) int {
	cols := [4]func(j int) chronon.Chronon{
		c.ttStartAt,
		c.ttEndAt,
		c.vtStartAt,
		func(j int) chronon.Chronon {
			if c.col != nil {
				return c.col.end(j)
			}
			return c.elems[j].VT.End()
		},
	}
	var tmp [binary.MaxVarintLen64]byte
	size := 0
	for _, col := range cols {
		prev := int64(0)
		for j := range n {
			v := int64(col(j))
			size += binary.PutVarint(tmp[:], v-prev)
			prev = v
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
// before a Retype dropped the promise stay counted. On every label it also
// turns into columns every full chunk still elements (sealFull).
func (s *RunStore) Compact() int {
	s.sealFull()
	if s.kind == Heap {
		return 0
	}
	return s.seal()
}

// sealFull turns every full element chunk from the first one not yet
// sealed on into columns: what Insert does to a chunk as it fills, for the
// chunks a sealing refused or that filled before there was sealing. A frozen
// snapshot refuses.
func (s *seq) sealFull() {
	if s.frozen {
		return
	}
	for ; s.full(s.cols); s.cols++ {
		s.sealChunk(s.cols)
	}
}

// rollback is the log organizations' rollback: binary search for the prefix
// with tt⊢ ≤ tt, then a filter of it.
func (s *seq) rollback(tt chronon.Chronon) (Answer, int) {
	return s.presentIn(s.SearchTT(tt, false), tt)
}

// presentIn filters the first n elements, run by run, for those present at
// tt. A full chunk whose zone map says nothing in it is present at tt — none
// of its elements had begun by tt, or every one had been closed by it — is
// skipped for one probe.
func (s *seq) presentIn(n int, tt chronon.Chronon) (Answer, int) {
	var a Answer
	touched := 0
	for k := 0; k*runSize < n; k++ {
		c := s.chunk(k)
		if s.full(k) && c.deadAt(tt) {
			touched++
			continue
		}
		end := min(n-k*runSize, s.n-k*runSize, runSize)
		touched += end
		if c.col != nil {
			a.open(c, k).presentCols(c, end, tt)
			a.shut()
		} else {
			from := len(a.els)
			a.els = appendPresent(a.els, c.elems[:end], tt)
			a.took(from)
		}
	}
	return a.done(), touched
}

// appendPresent appends the elements of run present at tt. The four walks
// (this, appendValid, appendAsOf, appendCurrent) keep their per-element loops
// in functions of their own, called once a visited chunk and never inlined:
// the loop then has a handful of live values whatever the walk around it
// carries. Inlined into a walk that also records spans, the time-slice of a
// 20 k-element relation read +14 % against the walk before spans; out of
// line it reads −15 % (BenchmarkScanGeneral, alternated). A sealed chunk's
// loops are the column filters (columns.go), out of line the same way.
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
// everything else is visited.
func (s *seq) vtScan(lo, hi chronon.Chronon) (Answer, int) {
	var a Answer
	touched := 0
	for k := range s.chunks() {
		c := s.chunk(k)
		if s.full(k) && (!c.live() || c.vtMisses(lo, hi)) {
			touched++
			continue
		}
		if c.col != nil {
			touched += runSize
			a.open(c, k).validCols(c, 0, runSize, lo, hi)
			a.shut()
		} else {
			run := s.run(k)
			touched += len(run)
			from := len(a.els)
			a.els = appendValid(a.els, run, lo, hi)
			a.took(from)
		}
	}
	return a.done(), touched
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
func (s *seq) vtRangeOrdered(lo, hi chronon.Chronon) (Answer, int) {
	start := s.searchVTEnd(lo)
	var a Answer
	touched := 1
	for k := start / runSize; k < s.chunks(); k++ {
		c := s.chunk(k)
		if s.full(k) {
			if c.vtLo >= hi {
				return a.done(), touched
			}
			if !c.live() {
				touched++
				continue
			}
		}
		from := max(start-k*runSize, 0)
		if c.col != nil {
			// The walk's stop: the first slot from `from` that starts at or
			// past hi, found in the column; every slot before it is touched,
			// and it is too.
			to := from
			for to < runSize && c.col.vtLo[to] < hi {
				to++
			}
			touched += to - from
			if to < runSize {
				touched++
			}
			a.open(c, k).validCols(c, from, to, lo, hi)
			a.shut()
			if to < runSize {
				return a.done(), touched
			}
			continue
		}
		run := s.run(k)[from:]
		at := len(a.els)
		for _, e := range run {
			touched++
			if e.VT.Start() >= hi {
				a.took(at)
				return a.done(), touched
			}
			if e.Current() && ValidDuring(e, lo, hi) {
				a.els = append(a.els, e)
			}
		}
		a.took(at)
	}
	return a.done(), touched
}

// AsOf answers the bitemporal query over st: the elements present at tt and
// valid at vt, in arrival order, and the number touched — elements visited
// plus one probe per pruned chunk. No organization orders both dimensions,
// so it scans, but only the chunks the query can touch: a full chunk whose
// valid-time envelope misses vt, or that holds nothing present at tt, is
// skipped on every organization, and where arrival order is tt⊢ order the
// scan ends at the first chunk that begins after tt. It is cooperative: it
// polls ctx once a chunk.
func AsOf(ctx context.Context, st Store, vt, tt chronon.Chronon) (Answer, int, error) {
	s, ttOrdered := seqOf(st), st.Kind() != Heap
	var a Answer
	touched := 0
	for k := range s.chunks() {
		c := s.chunk(k)
		if ttOrdered && c.ttStartAt(0) > tt {
			touched++
			break
		}
		if err := ctx.Err(); err != nil {
			return Answer{}, touched, err
		}
		if s.full(k) && (c.vtMissesAt(vt) || c.deadAt(tt)) {
			touched++
			continue
		}
		if c.col != nil {
			touched += runSize
			a.open(c, k).asOfCols(c, vt, tt)
			a.shut()
		} else {
			run := s.run(k)
			touched += len(run)
			from := len(a.els)
			a.els = appendAsOf(a.els, run, vt, tt)
			a.took(from)
		}
	}
	return a.done(), touched, nil
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
