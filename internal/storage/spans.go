package storage

import (
	"repro/internal/chronon"
	"repro/internal/element"
)

// ChunkSpan says where a stretch of a read's answer came from: the N
// consecutive result elements starting at At all sit in full chunk Chunk, in
// slot order, and the chunk's lifetime close count was Closes when the read
// saw it. Within one generation of a store (Chunk, Closes) names the chunk's
// 256 versions exactly — every slot is filled, a version is never edited in
// place, and the only change a slot ever sees is the close that finalizes its
// tt⊣ and bumps the count (seq.ReplaceAt), whether the chunk holds elements
// or is sealed columns — so whatever is derived from those versions alone,
// such as their encoding, can be kept under that name and found again by a
// later read (DESIGN §8).
type ChunkSpan struct {
	At, N  int
	Chunk  int
	Closes int
}

// spanMin is the fewest result elements a full chunk must contribute before a
// walk reports a span for it: an eighth of the chunk. Below that, keeping the
// whole chunk's derived bytes to save so few costs more than it returns — and
// a read that takes one element from a chunk, which is every read on a
// specialized organization, records and allocates nothing (DESIGN §8 has the
// measurement).
const spanMin = runSize / 8

// span appends the span for result[from:to] out of full chunk k, when it is
// dense enough to be worth one. Once per visited chunk, never per element —
// and out of line, through a pointer: a walk spends most of its turns
// skipping chunks on their zone maps, and inlined the slice header rode in
// registers through that loop, which cost each skipped chunk up to a
// nanosecond of spills, a quarter of a pruned scan.
//
//go:noinline
func (c *chunk) span(spans *[]ChunkSpan, k, from, to int) {
	if to-from < spanMin {
		return
	}
	if *spans == nil {
		*spans = make([]ChunkSpan, 0, 16) // a large answer has dozens: spare it the first four growths
	}
	*spans = append(*spans, ChunkSpan{At: from, N: to - from, Chunk: k, Closes: c.closes})
}

// Current returns st's current elements in arrival order, with the spans of
// the full chunks that supplied them; every element is touched.
func Current(st Store) ([]*element.Element, []ChunkSpan, int) {
	s := seqOf(st)
	var a answer
	var spans []ChunkSpan
	for k := range s.chunks() {
		c := s.chunk(k)
		from := len(a.out)
		if c.col != nil {
			a.currentCols(c, k*runSize)
		} else {
			a.out = appendCurrent(a.out, s.run(k))
		}
		if s.full(k) {
			c.span(&spans, k, from, len(a.out))
		}
	}
	return a.finish(s), spans, s.n
}

// appendCurrent appends the current elements of run.
//
//go:noinline
func appendCurrent(out, run []*element.Element) []*element.Element {
	for _, e := range run {
		if e.Current() {
			out = append(out, e)
		}
	}
	return out
}

// RollbackSpans is st.Rollback(tt) with the spans of the full chunks that
// supplied the answer.
func RollbackSpans(st Store, tt chronon.Chronon) ([]*element.Element, []ChunkSpan, int) {
	s := seqOf(st)
	if st.Kind() == Heap {
		return s.presentIn(s.n, tt)
	}
	return s.rollback(tt)
}

// VTRangeSpans is st.VTRange(lo, hi) with the spans of the full chunks that
// supplied the answer, where the answer comes from a chunk walk: the
// valid-time scan of the heap and the tt-ordered log. A store that searches
// or seeks instead reports none; its answers are the short ones.
func VTRangeSpans(st Store, lo, hi chronon.Chronon) ([]*element.Element, []ChunkSpan, int) {
	if rs, ok := st.(*RunStore); ok && rs.kind != VTOrdered {
		return rs.vtScan(lo, hi)
	}
	out, touched := st.VTRange(lo, hi)
	return out, nil, touched
}

// ChunkElements returns full chunk k's runSize elements as st holds them:
// an element chunk's own array, read-only, and a sealed chunk's versions
// materialized into fresh memory.
func ChunkElements(st Store, k int) []*element.Element {
	return seqOf(st).materialize(k)
}

// ChunkCloses returns full chunk k's lifetime close count as st holds it.
func ChunkCloses(st Store, k int) int {
	return seqOf(st).chunk(k).closes
}
