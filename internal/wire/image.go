package wire

import (
	"bytes"
	"slices"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// ChunkImage is the bytes AppendElement writes for the elements of one full
// chunk of a store, kept so that an element is encoded once: a stored
// version is never edited — a close finalizes a copy's tt⊣ in its slot — so
// what it encodes to is as immutable as it is, and an answer that takes a
// stretch of the chunk copies the stretch's bytes instead of formatting the
// same integers again (DESIGN §15). Each slot's bytes carry the comma that
// precedes an element inside "elements":[…], so a run of adjacent slots is
// one copy. An image is immutable. It keeps no element: each slot is named
// by its version's surrogate and tt⊣, which within a store tell one version
// from every other — a surrogate is stored once, and a close changes only
// its tt⊣ — so a splice goes by version, whether the answer's elements are
// the store's own or materialized from a sealed chunk, never by position
// alone.
type ChunkImage struct {
	es   []surrogate.Surrogate
	tte  []chronon.Chronon
	off  []uint32 // slot j is slab[off[j]:off[j+1]]
	slab []byte
}

// holds reports whether slot j encodes e's version.
func (m *ChunkImage) holds(j int, e *element.Element) bool {
	return m.es[j] == e.ES && m.tte[j] == e.TTEnd
}

// BuildChunkImage encodes elems, a chunk's slots in order. prev, when not
// nil, is an image of the same chunk from before some of its elements were
// closed: the slots that still hold the version prev encoded are copied from
// it, and only the others are encoded. The error is AppendElement's — one of
// the elements holds a non-finite float — and nothing is kept then.
func BuildChunkImage(elems []*element.Element, prev *ChunkImage) (*ChunkImage, error) {
	if prev != nil && len(prev.es) != len(elems) {
		prev = nil
	}
	// Encoded into a pooled buffer and copied out at its exact size: the slab
	// has no slack to hold for as long as the image lives, and a refusal
	// allocates its error and nothing else.
	buf := GetBuffer()
	want := 48 << 10 // 256 elements of two attributes
	if prev != nil {
		want = len(prev.slab) + 128
	}
	b := slices.Grow(buf.AvailableBuffer(), want)
	defer func() {
		if cap(b) > buf.Cap() {
			buf = bytes.NewBuffer(b[:0]) // pool the array the encode grew into
		}
		PutBuffer(buf)
	}()
	var stack [257]uint32
	off := stack[:0]
	for j, e := range elems {
		off = append(off, uint32(len(b)))
		if prev != nil && prev.holds(j, e) {
			b = append(b, prev.slab[prev.off[j]:prev.off[j+1]]...)
			continue
		}
		var err error
		if b, err = AppendElement(append(b, ','), e); err != nil {
			return nil, err
		}
	}
	off = append(off, uint32(len(b)))
	m := &ChunkImage{es: make([]surrogate.Surrogate, len(elems)), tte: make([]chronon.Chronon, len(elems)),
		off: slices.Clone(off), slab: bytes.Clone(b)}
	for j, e := range elems {
		m.es[j], m.tte[j] = e.ES, e.TTEnd
	}
	return m, nil
}

// Size is the image's resident bytes, for the budget of whoever keeps it.
func (m *ChunkImage) Size() int64 {
	return int64(120 + 16*len(m.es) + 4*len(m.off) + len(m.slab))
}

// splice hands s the bytes of els — consecutive elements of an answer, all of
// them the image's chunk's, in slot order — run of adjacent slots by run,
// each slot behind its comma. It reports how many of els it covered: all of
// them, unless one is not a version the image holds, and then the caller
// encodes from there on.
func (m *ChunkImage) splice(s *sink, els []*element.Element) int {
	i, j := 0, 0
	for i < len(els) {
		for j < len(m.es) && !m.holds(j, els[i]) {
			j++
		}
		if j == len(m.es) {
			break
		}
		a := j
		for i < len(els) && j < len(m.es) && m.holds(j, els[i]) {
			i++
			j++
		}
		s.piece(m.slab[m.off[a]:m.off[j]])
	}
	return i
}

// ImageSpan places an image in a QueryBody: Elements[At:At+N] are elements
// of Image's chunk, in slot order.
type ImageSpan struct {
	At, N int
	Image *ChunkImage
}
