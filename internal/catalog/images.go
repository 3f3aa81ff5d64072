package catalog

import (
	"repro/internal/storage"
	"repro/internal/wire"
)

// Chunk images: the element reads' kind of the chunk memo (qcache.Chunks),
// as chunk partials are the aggregates' (aggregate.go). The result cache
// drops a whole answer at the first write that meets its footprint; but a
// write leaves every full chunk it did not close into holding the very
// versions it held, and a version's encoding is as immutable as the version.
// What is kept, then, is the encoding of each sealed chunk that supplied a
// dense stretch of some answer (a sealed storage.Span of at least imageMin
// slots), each its own cache entry under (relation, "img", store generation,
// chunk ordinal) and named like a partial by the chunk's lifetime close
// count. A read after a write encodes the chunks written into since the last
// read, the head chunk and the sparse stretches, and copies the rest.

// imageMin is the fewest slots a sealed span must take before its chunk's
// image is looked up: an eighth of the chunk. Below that, keeping the whole
// chunk's derived bytes to save so few costs more than it returns — and a
// read that takes one element from a chunk, which is every read on a
// specialized organization, looks up and builds nothing (DESIGN §8 has the
// measurement).
const imageMin = storage.ChunkSize / 8

// images resolves the dense sealed spans of an answer served on v to the
// images its encoder may copy from, building the ones that are missing or
// older than the view and putting them in the cache. A span is left out —
// its versions are then encoded as before — when the cache is off, when a
// later view has already recorded the chunk at a higher close count (this
// reader holds an older pinned view, and its image would only displace the
// fresher one), and when the chunk holds a value JSON cannot spell. An image
// larger than a cache entry serves its answer and is not kept.
func (e *Entry) images(v *readView, a *storage.Answer) []wire.ImageSpan {
	spans := a.Spans()
	dense := 0
	for i := range spans {
		if spans[i].Sealed() && spans[i].Len() >= imageMin {
			dense++
		}
	}
	if dense == 0 {
		return nil
	}
	if e.cache == nil {
		e.spansEncoded.Add(int64(dense))
		return nil
	}
	memo := e.cache.Chunks(e.name, "img", v.gen, &e.imageMemo)
	st := v.engine.Store()
	out := make([]wire.ImageSpan, 0, dense)
	for i := range spans {
		sp := &spans[i]
		if !sp.Sealed() || sp.Len() < imageMin {
			continue
		}
		// A chunk is named by v's close count, not the span's: an answer the
		// result cache serves across epochs carries the spans of the view it
		// was computed on, and a close since into one of its chunks closed
		// none of its versions — that would have met its footprint — so the
		// chunk as v holds it holds them all, and a splice goes by identity.
		closes := storage.ChunkCloses(st, sp.Chunk())
		have, exact, keep := memo.Get(sp.Chunk(), closes)
		img, _ := have.(*wire.ChunkImage)
		if !exact {
			if !keep {
				continue
			}
			var err error
			if img, err = wire.BuildChunkImage(storage.ChunkOf(st, sp.Chunk()), img); err != nil {
				continue
			}
			memo.Put(sp.Chunk(), closes, img, img.Size())
		}
		out = append(out, wire.ImageSpan{Span: i, Image: img})
	}
	e.spansSpliced.Add(int64(len(out)))
	e.spansEncoded.Add(int64(dense - len(out)))
	return out
}

// ImageStats reports the entry's lifetime chunk-image counters: the chunk
// memo's image kind — lookups that found the chunk at the close count asked
// for, and images built — and dense spans answered by copying from an image
// against dense spans encoded element by element.
type ImageStats struct {
	Hits, Built                int64
	SpansSpliced, SpansEncoded int64
}

// ImageStats snapshots the entry's chunk-image counters.
func (e *Entry) ImageStats() ImageStats {
	return ImageStats{
		Hits:         e.imageMemo.Hit.Load(),
		Built:        e.imageMemo.Built.Load(),
		SpansSpliced: e.spansSpliced.Load(),
		SpansEncoded: e.spansEncoded.Load(),
	}
}
