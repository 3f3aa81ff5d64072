package storage

import (
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// Answer is a read's result as the view it was read on holds it: spans, in
// answer order, each the slots of one chunk that the answer takes. Nothing
// is copied out of a chunk: a span names the chunk — the chunk struct the
// view held, whose columns are written once, past every view's n — and a
// set of its slots. Every access path answers in this one form, the index
// seek included (ValidAnswer). An answer is stable only when read on a
// snapshot (Snapshot): the live store's first close into a chunk after a
// snapshot copies its tt⊣ column before it writes (seq.ownSlots), so the
// snapshot keeps the old one, but later closes write the live store's own
// column in place, so an answer read on the live store changes under a
// close made before it is encoded or materialized. So an answer
// costs a span header per chunk it draws on, however many versions it
// holds, and a result cache that keeps it keeps that and what the spans pin
// (Span.Pins). Elements materializes it, for the consumers that need rows;
// an encoder reads the spans (wire.QueryBody).
type Answer struct {
	spans []Span
	n     int
}

// Span is one stretch of an answer: Len slots of one chunk.
type Span struct {
	c      *chunk // the chunk as the answer's view holds it
	chunk  int
	closes int
	n      int
	sealed bool // the chunk was full in the answer's view
	slots  Slots
}

// ChunkSize is how many version slots a chunk has.
const ChunkSize = runSize

// chunkPins is what a span over a chunk can keep alive that the store no
// longer holds: the chunk's header and tt⊣ column as the answer's view held
// them, which the live store copies at its next close into the chunk
// (seq.ownSlots) while the span keeps the old ones.
const chunkPins = int(unsafe.Sizeof(chunk{})) + ChunkSize*int(unsafe.Sizeof(chronon.Chronon(0)))

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

// Sealed reports whether the span is slots of a full chunk — every chunk is
// sealed once it fills — and so whether Chunk and Closes name its chunk's
// runSize versions. A span over the tail chunk, which was still filling in
// the answer's view, is columns and not sealed.
func (sp *Span) Sealed() bool { return sp.sealed }

// Pins is what the span can keep alive that the store may let go of: the
// chunk's header and tt⊣ column as the answer's view held them, and for a
// span over the tail chunk also its arena, which the live side moves as
// strings arrive and cuts to size when the chunk fills (seq.push).
func (sp *Span) Pins() int {
	if sp.sealed {
		return chunkPins
	}
	return chunkPins + len(sp.c.strs)
}

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

// Slots is the span's slot set.
func (sp *Span) Slots() *Slots { return &sp.slots }

// Key is the version in slot j of the span's chunk: its surrogate and
// tt⊣, which within a store tell one version from every other.
func (sp *Span) Key(j int) (surrogate.Surrogate, chronon.Chronon) {
	return sp.c.col.es[j], sp.c.ttEnd[j]
}

// Load materializes slot j of the span's chunk — any slot inside the
// answer's view, in the set or not — into v, which the next Load into v
// overwrites, and returns it.
func (sp *Span) Load(j int, v *Version) *element.Element { return v.load(sp.c, j) }

// Version is memory for one materialized version, reused from load to load:
// what an encoder reads a chunk's slot through. The version is written in
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

// load materializes slot j of chunk c into v. The lists are laid out
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
	c.slot(j, &v.e)
	return &v.e
}

// LoadAt materializes the version at position i of st into v, which the
// next load into v overwrites, and returns it.
func LoadAt(st Store, i int, v *Version) *element.Element {
	return v.load(seqOf(st).chunk(i/runSize), i%runSize)
}

// fresh materializes slot j of chunk c into memory of its own: the element
// and its lists, one allocation.
func fresh(c *chunk, j int) *element.Element { return new(Version).load(c, j) }

// ChunkOf returns full chunk k of st as a span of all its slots.
func ChunkOf(st Store, k int) Span {
	s := seqOf(st)
	c := s.chunk(k)
	sp := Span{c: c, chunk: k, closes: c.closes, n: runSize, sealed: true}
	for w := range sp.slots {
		sp.slots[w] = ^uint64(0)
	}
	return sp
}

// ChunkCloses returns full chunk k's lifetime close count as st holds it.
func ChunkCloses(st Store, k int) int {
	return seqOf(st).chunk(k).closes
}

// Elements materializes the answer: every chunk's slot into one slab, so
// that it costs one allocation of each kind however many chunks the answer
// draws on. An empty answer is returned as nil. The slice and the versions
// are the caller's to read, not to modify.
func (a *Answer) Elements() []*element.Element {
	if a.n == 0 {
		return nil
	}
	nv, nu := 0, 0
	for i := range a.spans {
		sp := &a.spans[i]
		nv, nu = nv+sp.n*(sp.c.col.nInv+sp.c.col.nVar), nu+sp.n*sp.c.col.nUser
	}
	out := make([]*element.Element, 0, a.n)
	var sl slab
	sl.grow(a.n, nv, nu)
	t, v, u := 0, 0, 0
	for i := range a.spans {
		sp := &a.spans[i]
		c := sp.c
		cv, cu := c.col.nInv+c.col.nVar, c.col.nUser
		it := sp.slots.Stretches()
		for a, b := it.Next(); a < runSize; a, b = it.Next() {
			for j := a; j < b; j++ {
				c.load(j, sl.vals[v:v+cv], sl.users[u:u+cu], &sl.els[t])
				out = append(out, &sl.els[t])
				t, v, u = t+1, v+cv, u+cu
			}
		}
	}
	return out
}

// The walks build an answer chunk by chunk: a span over the chunk (span), a
// column filter into it, and keep — on the walk's stack, so that a chunk
// that gives nothing costs the answer nothing.

// span is a span over chunk k of s, no slot taken yet.
func (s *seq) span(k int) Span {
	c := s.chunk(k)
	return Span{c: c, chunk: k, closes: c.closes, sealed: s.full(k)}
}

// keep appends sp to the answer when its filter took a slot.
func (a *Answer) keep(sp *Span) {
	if sp.n > 0 {
		a.spans = append(a.spans, *sp)
		a.n += sp.n
	}
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
		sp := s.span(k)
		sp.currentCols(sp.c, s.slots(k))
		a.keep(&sp)
	}
	return a, s.n
}

// RollbackAnswer answers st.Rollback(tt).
func RollbackAnswer(st Store, tt chronon.Chronon) (Answer, int) {
	s := seqOf(st)
	if st.Kind() == Heap {
		return s.presentIn(s.n, tt)
	}
	return s.rollback(tt)
}

// ValidAnswer answers the current versions of st valid at some chronon of
// the inclusive [lo, last] — a time-slice at vt is [vt, vt], so no instant
// of the line is out of reach: a search on the vt-ordered log, a zone-map
// scan on the heap and the tt-ordered log, and the index seek of an indexed
// store. Every path answers in arrival order.
func ValidAnswer(st Store, lo, last chronon.Chronon) (Answer, int) {
	switch s := st.(type) {
	case *IndexedEventStore: // the positions keyed inside the window whose tt⊣ says current
		var pos []int
		touched := s.index.scanRange(lo, last, func(i int) bool {
			if s.TTEndAt(i) == chronon.Forever {
				pos = append(pos, i)
			}
			return true
		})
		slices.Sort(pos)
		return AnswerAt(s, pos), touched
	case *RunStore:
		if s.kind == VTOrdered {
			return s.vtRangeOrdered(lo, last)
		}
	}
	return seqOf(st).vtScan(lo, last)
}

// AnswerAt is the answer made of the versions at positions pos of st, which
// ascend: what a read that picked them by position would give.
func AnswerAt(st Store, pos []int) Answer {
	s := seqOf(st)
	var a Answer
	for o := 0; o < len(pos); {
		k := pos[o] / runSize
		sp := s.span(k)
		for ; o < len(pos) && pos[o]/runSize == k; o++ {
			sp.take(pos[o] % runSize)
		}
		a.keep(&sp)
	}
	return a
}
