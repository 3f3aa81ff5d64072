package storage

import (
	"math/bits"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// Answer is a read's result as the view it was read on holds it: spans, in
// answer order, each either the slots of one sealed chunk that the answer
// takes or elements of element chunks as they lie. Nothing is copied out of
// a sealed chunk: a span names the chunk — the chunk struct the view held,
// whose columns are immutable — and a set of its slots. An answer is stable
// only when read on a snapshot (Snapshot): the live store's first close
// into a chunk after a snapshot copies its tt⊣ column before it writes
// (seq.ownSlots), so the snapshot keeps the old one, but later closes write
// the live store's own column in place, so an answer read on the live store
// changes under a close made before it is encoded or materialized. So an answer costs a
// span header per chunk it draws on and a pointer per element of an element
// chunk (the head, or one whose mixed shapes sealColumns refused), however
// many versions it holds; a result cache that keeps it keeps that. Elements
// materializes it, for the consumers that need rows; an encoder reads the
// spans (wire.QueryBody).
type Answer struct {
	spans []Span
	els   []*element.Element // the element spans' elements, in answer order
	n     int
}

// Span is one stretch of an answer: Len slots of one sealed chunk, or
// elements of element chunks.
type Span struct {
	c      *chunk // the sealed chunk as the answer's view holds it; nil for elements
	chunk  int
	closes int
	n      int
	slots  Slots
	els    []*element.Element
}

// ChunkSize is how many version slots a chunk has.
const ChunkSize = runSize

// SealedSpanPins is what a sealed span can keep alive that the store no
// longer holds: its chunk's header and tt⊣ column as the answer's view held
// them, which the live store copies at its next close into the chunk
// (seq.ownSlots) while the span keeps the old ones.
const SealedSpanPins = int(unsafe.Sizeof(chunk{})) + ChunkSize*int(unsafe.Sizeof(chronon.Chronon(0)))

// Slots is a set of one chunk's slots, a bit a slot.
type Slots [runSize / 64]uint64

func (s *Slots) add(j int) { s[uint(j)/64] |= 1 << (uint(j) % 64) }

// Next returns the first slot at or past j in the set, runSize when there is
// none.
func (s *Slots) Next(j int) int {
	for w := j / 64; w < len(s); w++ {
		word := s[w]
		if w == j/64 {
			word &= ^uint64(0) << (uint(j) % 64)
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return runSize
}

// Stretches walks the set stretch of adjacent slots by stretch, reading each
// word once: it := s.Stretches(); for a, b := it.Next(); a < ChunkSize; a, b
// = it.Next() { … }.
func (s *Slots) Stretches() Stretches { return Stretches{s: s, word: s[0]} }

// Stretches is a walk over a slot set (Slots.Stretches).
type Stretches struct {
	s    *Slots
	w    int    // the word being read
	word uint64 // its bits not walked yet
}

// Next returns the next stretch [a, b) of the set; a is ChunkSize when the
// set is walked. A stretch that reaches the end of a word goes on into the
// words after it.
func (it *Stretches) Next() (a, b int) {
	for it.word == 0 {
		if it.w+1 >= len(it.s) {
			return runSize, runSize
		}
		it.w++
		it.word = it.s[it.w]
	}
	t := bits.TrailingZeros64(it.word)
	a = it.w*64 + t
	if run := bits.TrailingZeros64(^(it.word >> uint(t))); t+run < 64 {
		it.word &^= 1<<uint(t+run) - 1
		return a, a + run
	}
	for {
		if it.w+1 >= len(it.s) {
			it.word = 0
			return a, runSize
		}
		it.w++
		if it.word = it.s[it.w]; it.word != ^uint64(0) {
			run := bits.TrailingZeros64(^it.word)
			it.word &^= 1<<uint(run) - 1
			return a, it.w*64 + run
		}
	}
}

// Len reports how many versions the answer holds.
func (a *Answer) Len() int { return a.n }

// Spans returns the answer's spans in answer order; the slice is the
// answer's.
func (a *Answer) Spans() []Span { return a.spans }

// Sealed reports whether the span is slots of a sealed chunk.
func (sp *Span) Sealed() bool { return sp.c != nil }

// Len reports how many versions the span holds.
func (sp *Span) Len() int { return sp.n }

// Chunk and Closes name a sealed span's chunk: its ordinal and its lifetime
// close count as the answer's view held it. Within one generation of a store
// the pair names the chunk's runSize versions exactly — every slot is filled,
// a version is never edited in place, and the only change a slot ever sees is
// the close that finalizes its tt⊣ and bumps the count (seq.ReplaceAt) — so
// whatever is derived from those versions alone, such as their encoding, can
// be kept under that name and found again by a later read (DESIGN §8).
func (sp *Span) Chunk() int  { return sp.chunk }
func (sp *Span) Closes() int { return sp.closes }

// Slots is a sealed span's slot set.
func (sp *Span) Slots() *Slots { return &sp.slots }

// Elements is an element span's elements, read-only; nil for a sealed span.
func (sp *Span) Elements() []*element.Element { return sp.els }

// Key is the version in slot j of a sealed span's chunk: its surrogate and
// tt⊣, which within a store tell one version from every other.
func (sp *Span) Key(j int) (surrogate.Surrogate, chronon.Chronon) {
	return sp.c.col.es[j], sp.c.ttEnd[j]
}

// Load materializes slot j of a sealed span's chunk — any slot, in the set or
// not — into v, which the next Load into v overwrites, and returns it.
func (sp *Span) Load(j int, v *Version) *element.Element { return v.load(sp.c, j) }

// Version is memory for one materialized version, reused from load to load:
// what an encoder reads a sealed slot through. The version is written in
// place, and a version of a few values and user times keeps them in the
// Version itself; a larger one in a slab it grows once. Its lists point into
// it, so a Version lives where its owner keeps it — on the heap, reused —
// and never on a stack.
type Version struct {
	e     element.Element
	col   *columns // the columns e's lists are laid out for, kept alive while v is
	vals  [4]element.Value
	users [2]chronon.Chronon
	sl    slab
}

// Element is the version the last Load into v wrote.
func (v *Version) Element() *element.Element { return &v.e }

// load materializes slot j of sealed chunk c into v. The lists are laid out
// when c's columns are not the ones v last loaded from — in v's arrays when
// they are large enough, else in its slab — and a load from the same chunk
// as the one before writes only the slot.
func (v *Version) load(c *chunk, j int) *element.Element {
	if col := c.col; v.col != col {
		nv, nu := col.nInv+col.nVar, col.nUser
		vals, users := v.vals[:], v.users[:]
		if nv > len(vals) || nu > len(users) {
			v.sl.grow(1, nv, nu)
			vals, users = v.sl.vals, v.sl.users
		}
		col.lists(vals[:nv], users[:nu], &v.e)
		v.col = col
	}
	c.col.slot(j, c.ttEnd[j], &v.e)
	return &v.e
}

// fresh materializes slot j of sealed chunk c into memory of its own: the
// element and its lists, one allocation.
func fresh(c *chunk, j int) *element.Element { return new(Version).load(c, j) }

// ChunkOf returns full chunk k of st as a span of all its slots: a sealed
// chunk's columns, or an element chunk's elements.
func ChunkOf(st Store, k int) Span {
	s := seqOf(st)
	c := s.chunk(k)
	if c.col == nil {
		return Span{chunk: k, closes: c.closes, n: runSize, els: c.elems[:]}
	}
	sp := Span{c: c, chunk: k, closes: c.closes, n: runSize}
	for w := range sp.slots {
		sp.slots[w] = ^uint64(0)
	}
	return sp
}

// ChunkCloses returns full chunk k's lifetime close count as st holds it.
func ChunkCloses(st Store, k int) int {
	return seqOf(st).chunk(k).closes
}

// ElementAnswer is the answer made of els as they are: what a read that
// finds its versions otherwise than by a chunk walk — an index seek — gives.
func ElementAnswer(els []*element.Element) Answer {
	if len(els) == 0 {
		return Answer{}
	}
	return Answer{spans: []Span{{n: len(els), els: els}}, els: els, n: len(els)}
}

// Elements materializes the answer: an element span's elements as they lie,
// and every sealed slot into one slab, so that it costs one allocation of
// each kind however many sealed chunks the answer draws on. An answer of
// element spans alone is returned as it lies. The slice and the versions are
// the caller's to read, not to modify.
func (a *Answer) Elements() []*element.Element {
	n, nv, nu := 0, 0, 0
	for i := range a.spans {
		if sp := &a.spans[i]; sp.c != nil {
			col := sp.c.col
			n, nv, nu = n+sp.n, nv+sp.n*(col.nInv+col.nVar), nu+sp.n*col.nUser
		}
	}
	if n == 0 {
		return a.els[:len(a.els):len(a.els)]
	}
	out := make([]*element.Element, 0, a.n)
	var sl slab
	sl.grow(n, nv, nu)
	t, v, u := 0, 0, 0
	for i := range a.spans {
		sp := &a.spans[i]
		if sp.c == nil {
			out = append(out, sp.els...)
			continue
		}
		c := sp.c
		col := c.col
		cv, cu := col.nInv+col.nVar, col.nUser
		it := sp.slots.Stretches()
		for a, b := it.Next(); a < runSize; a, b = it.Next() {
			for j := a; j < b; j++ {
				col.load(j, c.ttEnd[j], sl.vals[v:v+cv], sl.users[u:u+cu], &sl.els[t])
				out = append(out, &sl.els[t])
				t, v, u = t+1, v+cv, u+cu
			}
		}
	}
	return out
}

// The walks build an answer chunk by chunk: a sealed chunk through open, a
// column filter and shut, an element chunk by appending to els and took.

// open appends a span over sealed chunk c, ordinal k, for a column filter to
// fill.
func (a *Answer) open(c *chunk, k int) *Span {
	a.spans = append(a.spans, Span{c: c, chunk: k, closes: c.closes})
	return &a.spans[len(a.spans)-1]
}

// shut keeps the span open appended when its filter took a slot, and drops
// it when it took none.
func (a *Answer) shut() {
	last := len(a.spans) - 1
	if n := a.spans[last].n; n > 0 {
		a.n += n
	} else {
		a.spans = a.spans[:last]
	}
}

// took books els[from:] as the answer's next elements: an element span, or
// the growth of the one before when that is an element span too.
func (a *Answer) took(from int) {
	n := len(a.els) - from
	if n == 0 {
		return
	}
	a.n += n
	if last := len(a.spans) - 1; last >= 0 && a.spans[last].c == nil {
		a.spans[last].n += n
		return
	}
	a.spans = append(a.spans, Span{n: n})
}

// done points the element spans at their elements, once els has stopped
// growing.
func (a *Answer) done() Answer {
	at := 0
	for i := range a.spans {
		if sp := &a.spans[i]; sp.c == nil {
			sp.els = a.els[at : at+sp.n : at+sp.n]
			at += sp.n
		}
	}
	return *a
}

// take adds slot j to the span.
func (sp *Span) take(j int) {
	sp.slots.add(j)
	sp.n++
}

// Current returns st's current versions in arrival order; every version is
// touched.
func Current(st Store) (Answer, int) {
	s := seqOf(st)
	var a Answer
	for k := range s.chunks() {
		c := s.chunk(k)
		if c.col != nil {
			a.open(c, k).currentCols(c)
			a.shut()
		} else {
			from := len(a.els)
			a.els = appendCurrent(a.els, s.run(k))
			a.took(from)
		}
	}
	return a.done(), s.n
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

// RollbackAnswer answers st.Rollback(tt).
func RollbackAnswer(st Store, tt chronon.Chronon) (Answer, int) {
	s := seqOf(st)
	if st.Kind() == Heap {
		return s.presentIn(s.n, tt)
	}
	return s.rollback(tt)
}

// VTRangeAnswer answers st.VTRange(lo, hi): a search on the vt-ordered log, a
// zone-map scan on the heap and the tt-ordered log, and the index seek of an
// indexed store.
func VTRangeAnswer(st Store, lo, hi chronon.Chronon) (Answer, int) {
	if rs, ok := st.(*RunStore); ok {
		if rs.kind == VTOrdered {
			return rs.vtRangeOrdered(lo, hi)
		}
		return rs.vtScan(lo, hi)
	}
	out, touched := st.VTRange(lo, hi)
	return ElementAnswer(out), touched
}

// AnswerAt is the answer made of the versions at positions pos of st, which
// ascend: what a read that picked them by position would give.
func AnswerAt(st Store, pos []int) Answer {
	s := seqOf(st)
	var a Answer
	for o := 0; o < len(pos); {
		k := pos[o] / runSize
		c := s.chunk(k)
		if c.col != nil {
			sp := a.open(c, k)
			for ; o < len(pos) && pos[o]/runSize == k; o++ {
				sp.take(pos[o] % runSize)
			}
			a.shut()
			continue
		}
		from := len(a.els)
		for ; o < len(pos) && pos[o]/runSize == k; o++ {
			a.els = append(a.els, c.elems[pos[o]%runSize])
		}
		a.took(from)
	}
	return a.done()
}
