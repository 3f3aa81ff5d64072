package catalog

import (
	"repro/internal/qcache"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Chunk images: the element reads' memo under the result cache, as run
// partials are the aggregates' (aggregate.go). The result cache keys a whole
// answer by mutation epoch, so one write empties it; but a write leaves every
// full chunk it did not close into holding the very elements it held, and an
// element's encoding is as immutable as the element. What is kept, then, is
// the encoding of each full chunk that supplied a dense stretch of some
// answer (storage.ChunkSpan), under the name run partials use: within one
// generation of the store, (chunk ordinal, lifetime close count). A read
// after a write encodes the chunks written into since the last read, the
// partial tail and the sparse stretches, and copies the rest.

// chunkImages holds, for one (relation, store generation), the image of each
// full chunk some answer has needed. It is immutable once handed out: a read
// that builds more extends a copy, so concurrent readers and the cache never
// see one change.
type chunkImages struct {
	at    []imageAt // by chunk ordinal; a nil img where nothing is known
	bytes int64
}

// imageAt is one chunk's image at one close count.
type imageAt struct {
	closes int
	img    *wire.ChunkImage
}

// chunk returns what is known about a chunk, the zero imageAt for nothing.
func (s *chunkImages) chunk(k int) imageAt {
	if s == nil || k >= len(s.at) {
		return imageAt{}
	}
	return s.at[k]
}

// Size approximates the resident bytes, for the cache's budget.
func (s *chunkImages) Size() int64 {
	if s == nil {
		return 0
	}
	return 48 + 16*int64(len(s.at)) + s.bytes
}

// with returns the set holding ia for chunk k, extending a copy unless this
// read has made one already (owned).
func (s *chunkImages) with(k int, ia imageAt, owned bool) *chunkImages {
	if !owned {
		next := &chunkImages{}
		if s != nil {
			next.at, next.bytes = append(next.at, s.at...), s.bytes
		}
		s = next
	}
	for len(s.at) <= k {
		s.at = append(s.at, imageAt{})
	}
	if old := s.at[k].img; old != nil {
		s.bytes -= old.Size()
	}
	s.at[k] = ia
	s.bytes += ia.img.Size()
	return s
}

// imagesKey is where a store generation's chunk images live in the cache,
// beside its "part:" run partials and like them under no epoch.
func (e *Entry) imagesKey(gen uint64) qcache.Key {
	return qcache.Key{Rel: e.name, Fingerprint: "img", Epoch: gen}
}

// images resolves the spans of an answer computed against v to the images
// its encoder may copy from, building the ones that are missing or older
// than the view and storing the extended set back. A span is left out — its
// elements are then encoded as before — when the cache is off, when the set
// has reached the cache's per-entry budget, when a later view has already
// recorded the chunk at a higher close count (this reader holds an older
// pinned view, and its image would only displace the fresher one), and when
// the chunk holds a value JSON cannot spell.
func (e *Entry) images(v *readView, spans []storage.ChunkSpan) []wire.ImageSpan {
	if len(spans) == 0 {
		return nil
	}
	budget := e.cache.MaxEntry()
	if budget == 0 {
		e.spansEncoded.Add(int64(len(spans)))
		return nil
	}
	key := e.imagesKey(v.gen)
	var set *chunkImages
	if hit, ok := e.cache.Peek(key); ok {
		set = hit.(*chunkImages)
	}
	out := make([]wire.ImageSpan, 0, len(spans))
	grew, full := false, false
	for _, sp := range spans {
		have := set.chunk(sp.Chunk)
		if have.img == nil || have.closes != sp.Closes {
			if full || have.img != nil && have.closes > sp.Closes {
				continue
			}
			img, err := wire.BuildChunkImage(storage.ChunkElements(v.engine.Store(), sp.Chunk), have.img)
			if err != nil {
				continue
			}
			if have.img == nil {
				e.imagesBuilt.Add(1)
			} else {
				e.imagesRebuilt.Add(1)
			}
			grown := img.Size()
			if have.img != nil {
				grown -= have.img.Size()
			}
			have = imageAt{closes: sp.Closes, img: img}
			if full = set.Size()+grown+16 > budget; !full {
				// Past the budget the image serves this answer and is dropped.
				set, grew = set.with(sp.Chunk, have, grew), true
			}
		}
		out = append(out, wire.ImageSpan{At: sp.At, N: sp.N, Image: have.img})
	}
	if grew {
		e.cache.Put(key, set, set.Size())
	}
	e.spansSpliced.Add(int64(len(out)))
	e.spansEncoded.Add(int64(len(spans) - len(out)))
	return out
}

// ImageStats reports the entry's lifetime chunk-image counters: images built
// for a chunk that had none, images rebuilt because the chunk had been closed
// into since, dense spans answered by copying from an image against dense
// spans encoded element by element, and the bytes of images the cache holds
// for the live store now.
type ImageStats struct {
	Built, Rebuilt             int64
	SpansSpliced, SpansEncoded int64
	Bytes                      int64
}

// ImageStats snapshots the entry's chunk-image counters.
func (e *Entry) ImageStats() ImageStats {
	st := ImageStats{
		Built:        e.imagesBuilt.Load(),
		Rebuilt:      e.imagesRebuilt.Load(),
		SpansSpliced: e.spansSpliced.Load(),
		SpansEncoded: e.spansEncoded.Load(),
	}
	if hit, ok := e.cache.Peek(e.imagesKey(e.view.Load().gen)); ok {
		st.Bytes = hit.(*chunkImages).bytes
	}
	return st
}
