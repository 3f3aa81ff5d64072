package query

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/wire"
)

// TestSpansAcrossTheOrganizations holds what the engine reports beside an
// answer to what the encoder will do with it, on each of the four stores the
// engine can be built over — the indexed one included, which the catalog never
// chooses: every span names a full chunk whose elements, in slot order,
// contain the span's stretch of the answer; the answers a search or an index
// seek gives report none; and the body that copies from images of the named
// chunks is, byte for byte, the body that encodes every element.
func TestSpansAcrossTheOrganizations(t *testing.T) {
	const n = 3*256 + 40
	for _, build := range []func() storage.Store{
		func() storage.Store { return storage.NewHeap() },
		func() storage.Store { return storage.NewTTLog() },
		func() storage.Store { return storage.NewVTLog() },
		func() storage.Store { return storage.NewIndexedEvent() },
	} {
		st := build()
		name := fmt.Sprintf("%T/%v", st, st.Kind())
		var stored []*element.Element
		for i := 0; i < n; i++ {
			// Every vt is held by a dozen neighbours: a time-slice is small.
			e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(i + 1),
				TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever, VT: element.EventAt(chronon.Chronon(1000 + i/12)),
				Varying: []element.Value{element.Int(int64(i) * 37)}}
			if err := st.Insert(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stored = append(stored, e)
		}
		for i := 5; i < n; i += 9 { // closes in every chunk
			closed := *stored[i]
			closed.TTEnd = chronon.Chronon(10*n + i)
			st.Replace(stored[i], &closed)
		}
		en := New(st, nil)
		rangeSpans := 3 // the scan's; a search and an index seek report none
		if st.Kind() == storage.VTOrdered || en.Access().VTIndex {
			rangeSpans = 0
		}
		for _, q := range []struct {
			name  string
			res   Result
			spans int
		}{
			{"current", en.Current(), 3},
			{"rollback, cut inside chunk 1", en.Rollback(chronon.Chronon(10 * 400)), 2},
			{"rollback, late", en.Rollback(chronon.Chronon(20 * n)), 3},
			{"time-slice", en.Timeslice(1020), 0},
			{"vt-range", en.VTRange(1000, 1000+n), rangeSpans},
		} {
			if len(q.res.Elements) == 0 || len(q.res.Spans) != q.spans {
				t.Fatalf("%s, %s: %d elements, spans %v, want %d spans", name, q.name, len(q.res.Elements), q.res.Spans, q.spans)
			}
			body := wire.QueryBody{Elements: q.res.Elements, Touched: q.res.Touched}
			for _, sp := range q.res.Spans {
				chunk := storage.ChunkElements(st, sp.Chunk)
				j := 0
				for _, e := range q.res.Elements[sp.At : sp.At+sp.N] {
					for j < len(chunk) && (chunk[j].ES != e.ES || chunk[j].TTEnd != e.TTEnd) {
						j++
					}
				}
				if j == len(chunk) {
					t.Fatalf("%s, %s: span %+v holds an element that is not chunk %d's, or out of slot order", name, q.name, sp, sp.Chunk)
				}
				img, err := wire.BuildChunkImage(chunk, nil)
				if err != nil {
					t.Fatal(err)
				}
				body.Images = append(body.Images, wire.ImageSpan{At: sp.At, N: sp.N, Image: img})
			}
			spliced, err := body.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			body.Images = nil
			if plain, _ := body.AppendJSON(nil); !bytes.Equal(spliced, plain) {
				t.Fatalf("%s, %s: the spliced body is not the encoded one", name, q.name)
			}
		}
	}
}
