package wire

import (
	"bytes"
	"errors"
	"slices"

	"repro/internal/chronon"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// ChunkImage is the bytes AppendElement writes for the versions of one full
// sealed chunk of a store, kept so that a version is encoded once: a stored
// version is never edited — a close finalizes its tt⊣ in its slot — so what
// it encodes to is as immutable as it is, and an answer that takes a stretch
// of the chunk's slots copies the stretch's bytes instead of formatting the
// same integers again (DESIGN §15). Each slot's bytes carry the comma that
// precedes an element inside "elements":[…], so a run of adjacent slots is
// one copy. An image is immutable. It keeps no version: each slot is named
// by its version's surrogate and tt⊣, which within a store tell one version
// from every other — a surrogate is stored once, and a close changes only
// its tt⊣ — so a splice goes by version, never by position alone.
type ChunkImage struct {
	es   []surrogate.Surrogate
	tte  []chronon.Chronon
	off  []uint32 // slot j is slab[off[j]:off[j+1]]
	slab []byte
}

// holds reports whether slot j encodes the version es, tte.
func (m *ChunkImage) holds(j int, es surrogate.Surrogate, tte chronon.Chronon) bool {
	return m.es[j] == es && m.tte[j] == tte
}

// errElementChunk refuses an image of a chunk that is not sealed.
var errElementChunk = errors.New("wire: a chunk image is built from a sealed chunk")

// BuildChunkImage encodes ch, a full sealed chunk (storage.ChunkOf), slot by
// slot through one scratch version. prev, when not nil, is an image of the
// same chunk from before some of its versions were closed: the slots that
// still hold the version prev encoded are copied from it, and only the
// others are encoded. The error is AppendElement's — one of the versions
// holds a non-finite float — and nothing is kept then.
func BuildChunkImage(ch storage.Span, prev *ChunkImage) (*ChunkImage, error) {
	if !ch.Sealed() {
		return nil, errElementChunk
	}
	n := ch.Len()
	if prev != nil && len(prev.es) != n {
		prev = nil
	}
	// Encoded into a kept buffer and copied out at its exact size: the slab
	// has no slack to hold for as long as the image lives, and a refusal
	// allocates its error and nothing else.
	sc := builds.get()
	if sc == nil {
		sc = new(build)
	}
	want := 48 << 10 // 256 elements of two attributes
	if prev != nil {
		want = len(prev.slab) + 128
	}
	b := slices.Grow(sc.buf[:0], want)
	defer func() {
		if sc.buf = b[:0]; cap(b) <= maxPooledBuffer { // keep the array the encode grew into
			builds.put(sc)
		}
	}()
	var stack [storage.ChunkSize + 1]uint32
	off := stack[:0]
	for j := range n {
		off = append(off, uint32(len(b)))
		if es, tte := ch.Key(j); prev != nil && prev.holds(j, es, tte) {
			b = append(b, prev.slab[prev.off[j]:prev.off[j+1]]...)
			continue
		}
		var err error
		if b, err = AppendElement(append(b, ','), ch.Load(j, &sc.v)); err != nil {
			return nil, err
		}
	}
	off = append(off, uint32(len(b)))
	m := &ChunkImage{es: make([]surrogate.Surrogate, n), tte: make([]chronon.Chronon, n),
		off: slices.Clone(off), slab: bytes.Clone(b)}
	for j := range n {
		m.es[j], m.tte[j] = ch.Key(j)
	}
	return m, nil
}

// build is what an image build works in: the buffer the chunk is encoded
// into and the version each slot is loaded into.
type build struct {
	buf []byte
	v   storage.Version
}

// builds keeps two builds' memory from one to the next, on a list and not in
// a sync.Pool, so that what a build allocates is the image, or a refusal's
// error, and not whatever the pool happened to keep. A third concurrent
// build makes its own.
var builds freeList[build]

// Size is the image's resident bytes, for the budget of whoever keeps it.
func (m *ChunkImage) Size() int64 {
	return int64(120 + 16*len(m.es) + 4*len(m.off) + len(m.slab))
}

// held returns the first slot of [from, to) of sp, a sealed span over the
// image's chunk, whose version the image does not hold; to when it holds
// them all.
func (m *ChunkImage) held(sp *storage.Span, from, to int) int {
	for j := from; j < to; j++ {
		if es, tte := sp.Key(j); !m.holds(j, es, tte) {
			return j
		}
	}
	return to
}

// ImageSpan places an image in a QueryBody: Image is the image of the chunk
// of the answer's sealed span Answer.Spans()[Span].
type ImageSpan struct {
	Span  int
	Image *ChunkImage
}
