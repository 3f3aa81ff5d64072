package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/storage"
)

// storeOf stores els, in arrival order, in a heap, which seals every full
// chunk into columns as it fills.
func storeOf(tb testing.TB, els []*element.Element) storage.Store {
	tb.Helper()
	st := storage.NewHeap()
	for _, e := range els {
		if err := st.Insert(e); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// closeOf is the clone a logical delete swaps into an element's slot.
func closeOf(e *element.Element, tt chronon.Chronon) *element.Element {
	c := *e
	c.TTEnd = tt
	return &c
}

// sameAsPlain holds a body with images to the same body without, appended
// whole and streamed through a buffer far smaller than it, and to the body
// of the answer's materialized elements.
func sameAsPlain(t *testing.T, name string, body QueryBody) {
	t.Helper()
	got, gotErr := body.AppendJSON(nil)
	var streamed bytes.Buffer
	sent, streamErr := body.StreamJSON(&streamed, make([]byte, 0, 700))
	rendered, measured, renderErr := body.Render(nil)
	body.Images = nil
	want, wantErr := body.AppendJSON(nil)
	if (gotErr != nil) != (wantErr != nil) || (gotErr == nil && !bytes.Equal(got, want)) {
		t.Fatalf("%s: the spliced body (%d bytes, %v) is not the encoded one (%d bytes, %v)", name, len(got), gotErr, len(want), wantErr)
	}
	rowsBody := body
	rowsBody.Answer = storage.ElementAnswer(body.Answer.Elements())
	rows, rowsErr := rowsBody.AppendJSON(nil)
	if (rowsErr != nil) != (wantErr != nil) || (wantErr == nil && !bytes.Equal(rows, want)) {
		t.Fatalf("%s: the body encoded from the answer (%d bytes, %v) is not the one from its elements (%d bytes, %v)", name, len(want), wantErr, len(rows), rowsErr)
	}
	if (streamErr != nil) != (wantErr != nil) || (renderErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: streaming fails with %v, rendering with %v, appending with %v", name, streamErr, renderErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if want = append(want, '\n'); !bytes.Equal(streamed.Bytes(), want) || sent != len(want) {
		t.Fatalf("%s: the streamed body (%d bytes, %d reported) is not the encoded one (%d bytes)", name, streamed.Len(), sent, len(want))
	}
	if measured != 0 && (measured != len(want) || len(rendered) != 0) {
		t.Fatalf("%s: Render measured %d bytes of a %d-byte body, and appended %d", name, measured, len(want), len(rendered))
	}
	if measured == 0 && !bytes.Equal(append(rendered, '\n'), want) {
		t.Fatalf("%s: the rendered body (%d bytes) is not the encoded one (%d bytes)", name, len(rendered), len(want)-1)
	}
}

// TestSpliceIsTheEncode: whatever stretch of whichever chunks an answer
// takes, dense, sparse or a single slot, copying it out of the chunks' images
// gives the bytes of encoding it — also from an image refreshed after closes,
// and also when a span names an image that is not its chunk's as it is now
// (the encoder goes by the versions' identity and encodes what it does not
// find).
func TestSpliceIsTheEncode(t *testing.T) {
	stored := benchElements(3*256+40, true)
	for i := 0; i < len(stored); i += 7 {
		stored[i] = closeOf(stored[i], stored[i].TTStart+900)
	}
	st := storeOf(t, stored)
	for _, stride := range []int{1, 2, 3, 40, 255, 256} {
		sameAsPlain(t, "every "+string(rune('0'+stride%10))+"th", splicedBody(t, st, stride))
	}
	empty := splicedBody(t, st, 1)
	empty.Answer, empty.Images = storage.Answer{}, nil
	sameAsPlain(t, "no elements", empty)

	// Closes land in chunk 1: the refreshed image is the image built from
	// nothing, and the stale one still serves the versions it shares.
	body := splicedBody(t, st, 2)
	for _, j := range []int{0, 17, 18, 255} {
		old := stored[256+j]
		stored[256+j] = closeOf(old, 1800000000)
		st.Replace(old, stored[256+j])
	}
	refreshed, err := BuildChunkImage(storage.ChunkOf(st, 1), body.Images[1].Image)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := BuildChunkImage(storage.ChunkOf(st, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refreshed.slab, scratch.slab) || refreshed.Size() != scratch.Size() {
		t.Fatal("an image refreshed from its predecessor is not the image built from nothing")
	}
	after := splicedBody(t, st, 2)
	after.Images[1].Image = refreshed
	sameAsPlain(t, "after closes, refreshed image", after)
	after.Images[1].Image = body.Images[1].Image
	sameAsPlain(t, "after closes, stale image", after)
	after.Images[0].Image, after.Images[2].Image = after.Images[2].Image, after.Images[0].Image
	sameAsPlain(t, "images of other chunks", after)
}

// TestImageRebuildAfterACloseAllocatesTheImage: after a close into a sealed
// chunk, its image is rebuilt from the one before — every slot but the
// closed one copied — reading the chunk's columns through one scratch
// version on the stack, never materializing the chunk: what it allocates is
// the image, its struct and its four arrays. It used to materialize the
// chunk's 256 versions first: their slab, its values and the slice of
// pointers to them.
func TestImageRebuildAfterACloseAllocatesTheImage(t *testing.T) {
	stored := benchElements(256, true)
	st := storeOf(t, stored)
	img, err := BuildChunkImage(storage.ChunkOf(st, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Replace(stored[100], closeOf(stored[100], stored[100].TTStart+900))
	chunk := storage.ChunkOf(st, 0)
	rebuilt, err := BuildChunkImage(chunk, img) // warms the pooled buffer too
	if scratch, _ := BuildChunkImage(chunk, nil); err != nil || !bytes.Equal(rebuilt.slab, scratch.slab) {
		t.Fatalf("the rebuilt image is not the image built from nothing (%v)", err)
	}
	// Five; six under -race, where sync.Pool drops a quarter of what it is
	// given back and the buffer is made again.
	const rebuildAllocs = 6
	if n := testing.AllocsPerRun(100, func() { _, _ = BuildChunkImage(chunk, img) }); n > rebuildAllocs {
		t.Errorf("an image rebuild after one close allocates %v objects, want the image's five (and the buffer under -race)", n)
	}
}

// TestReservationFitsTheBody: the encoder reserves its buffer once and close
// to what it fills — to the byte for what it copies, from the answer's first
// and last element for what it encodes — where it used to take 224 bytes an
// element whatever the schema: 4.5 MB, zeroed, for a 3 MB body.
func TestReservationFitsTheBody(t *testing.T) {
	stored := benchElements(20_000, true)
	for name, body := range map[string]QueryBody{
		"encoded":  {Answer: storage.ElementAnswer(stored), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: len(stored), Epoch: 9},
		"spliced":  splicedBody(t, storeOf(t, stored), 1),
		"halfway":  splicedBody(t, storeOf(t, stored), 2),
		"no plan":  {Answer: storage.ElementAnswer(stored[:2000])},
		"one only": {Answer: storage.ElementAnswer(stored[:1])},
	} {
		out, err := body.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if slack := cap(out) - len(out); body.Answer.Len() > 1 && slack*10 > len(out) {
			t.Errorf("%s: %d bytes in a buffer of %d: more than a tenth of it is slack", name, len(out), cap(out))
		}
		// One reservation; under -race the sampling scratch escapes as well.
		if n := testing.AllocsPerRun(3, func() { _, _ = body.AppendJSON(nil) }); n > 2 {
			t.Errorf("%s: encoding into no buffer allocates %v times, want the one reservation", name, n)
		}
	}
}

// TestNonFiniteChunkBuildsNoImage is the bound on the hostile shape: a chunk
// of values JSON cannot spell yields no image and costs its error value to
// refuse — what refusing the answer itself costs, and always has — and the
// answer over such elements is refused for no more memory than the fixed
// reservation it used to make.
func TestNonFiniteChunkBuildsNoImage(t *testing.T) {
	stored := benchElements(20_000, true)
	for i, e := range stored {
		e.Varying = []element.Value{element.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3])}
	}
	chunk := storage.ChunkOf(storeOf(t, stored[:256]), 0)
	if _, err := BuildChunkImage(chunk, nil); err == nil { // warms the pooled buffer too
		t.Fatal("a chunk of non-finite floats was given an image")
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = BuildChunkImage(chunk, nil) }); n > 5 {
		t.Errorf("refusing a chunk allocates %v times, want the four of its json.UnsupportedValueError (five under -race)", n)
	}
	// One bad slot late in the chunk is refused as well, whatever it cost.
	late := benchElements(256, true)
	late[200].Varying = []element.Value{element.Float(math.NaN())}
	if _, err := BuildChunkImage(storage.ChunkOf(storeOf(t, late), 0), nil); err == nil {
		t.Fatal("a chunk with one non-finite float was given an image")
	}

	out, err := QueryBody{Answer: storage.ElementAnswer(stored), Touched: len(stored)}.AppendJSON(nil)
	if err == nil {
		t.Fatal("an answer of non-finite floats was encoded")
	}
	if was := 256 + 224*len(stored); cap(out) > was {
		t.Errorf("the refused answer had reserved %d bytes; the fixed reservation was %d", cap(out), was)
	}
}

// TestLargeSplicedBodiesStream: a body is streamed when it is past what a
// pooled buffer may hold and at least seven eighths of its elements come out
// of images — then Render has its length to the byte for the price of
// encoding the few that do not — and otherwise appended whole, as every body
// was. At the line, bodies just under and just over it whose spliced bytes
// alone stay under it — a tenth of their slots closed since their chunk's
// image was made, so encoded — are gathered and streamed, byte for byte. A
// writer that fails gets its error back and nothing more is written.
func TestLargeSplicedBodiesStream(t *testing.T) {
	stored := benchElements(20_000, true)
	st := storeOf(t, stored)
	dense := splicedBody(t, st, 1)
	render := func(name string, body QueryBody, stream bool) {
		t.Helper()
		whole, err := body.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := append(whole, '\n')
		out, n, err := body.Render(make([]byte, 0, 64))
		switch {
		case err != nil || (n > 0) != stream:
			t.Errorf("%s: Render = %d, %v; the body is %d bytes and should stream: %v", name, n, err, len(want), stream)
		case stream && (n != len(want) || len(out) != 0):
			t.Errorf("%s: Render measured %d bytes and appended %d; the body is %d", name, n, len(out), len(want))
		case !stream && !bytes.Equal(append(out, '\n'), want):
			t.Errorf("%s: the rendered body (%d bytes) is not the appended one (%d)", name, len(out), len(whole))
		}
		var sent bytes.Buffer
		if m, err := body.StreamJSON(&sent, make([]byte, 0, 4<<10)); err != nil || m != len(want) || !bytes.Equal(sent.Bytes(), want) {
			t.Errorf("%s: streamed %d bytes (%d reported, %v) of a %d-byte body", name, sent.Len(), m, err, len(want))
		}
	}
	render("20k, every chunk imaged", dense, true)
	render("20k, nothing imaged", QueryBody{Answer: storage.ElementAnswer(stored), Touched: len(stored)}, false)
	render("20k, every second chunk", QueryBody{Answer: dense.Answer, Images: everyOther(dense.Images)}, false)
	render("2k of one chunk in two: small", splicedBody(t, storeOf(t, stored[:4000]), 2), false)

	// The line: every chunk of 8,192 versions imaged, then every tenth
	// version closed; bodies of the first m versions.
	lined := benchElements(8192, true)
	lst := storeOf(t, lined)
	images := make([]*ChunkImage, lst.Len()/256)
	for k := range images {
		img, err := BuildChunkImage(storage.ChunkOf(lst, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		images[k] = img
	}
	for i := 0; i < len(lined); i += 10 {
		closed := closeOf(lined[i], lined[i].TTStart+900)
		lst.Replace(lined[i], closed)
		lined[i] = closed
	}
	prefix := func(m int) QueryBody {
		pos := make([]int, m)
		for i := range pos {
			pos[i] = i
		}
		body := QueryBody{Answer: storage.AnswerAt(lst, pos), Plan: "full scan (heap)", PlanNode: benchPlan(), Touched: m, Epoch: 9}
		for i, sp := range body.Answer.Spans() {
			if sp.Sealed() {
				body.Images = append(body.Images, ImageSpan{Span: i, Image: images[sp.Chunk()]})
			}
		}
		return body
	}
	size := func(m int) int {
		out, _ := prefix(m).AppendJSON(nil)
		return len(out)
	}
	lo, hi := 256, len(lined) // size(lo) < maxPooledBuffer <= size(hi)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; size(mid) < maxPooledBuffer {
			lo = mid
		} else {
			hi = mid
		}
	}
	if hi == len(lined) {
		t.Fatalf("8,192 versions encode to %d bytes, under the line", size(hi))
	}
	over := prefix(hi)
	if covered, spliced := over.covered(); spliced >= maxPooledBuffer || covered == over.Answer.Len() || covered*8 < over.Answer.Len()*7 {
		t.Fatalf("the body over the line splices %d of its %d versions, %d bytes", covered, over.Answer.Len(), spliced)
	}
	render("just under the line", prefix(lo), false)
	render("just over the line", over, true)

	for _, size := range []int{4 << 10, 256 << 10, 8 << 20} {
		var got bytes.Buffer
		whole, _ := dense.AppendJSON(nil)
		if n, err := dense.StreamJSON(&got, make([]byte, 0, size)); err != nil || n != got.Len() || !bytes.Equal(got.Bytes(), append(whole, '\n')) {
			t.Errorf("streamed through %d bytes: %d reported, %d written, %v", size, n, got.Len(), err)
		}
	}
	w := &failingWriter{after: 3}
	if _, err := dense.StreamJSON(w, make([]byte, 0, 64<<10)); err != errWriterGone || w.calls != 4 {
		t.Errorf("a writer that fails on its fourth call: %v after %d calls", err, w.calls)
	}
}

func everyOther(spans []ImageSpan) (out []ImageSpan) {
	for i := 0; i < len(spans); i += 2 {
		out = append(out, spans[i])
	}
	return out
}

var errWriterGone = errors.New("writer gone")

type failingWriter struct{ after, calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.calls++; w.calls > w.after {
		return 0, errWriterGone
	}
	return len(p), nil
}

func TestBufferList(t *testing.T) {
	for _, tc := range []struct {
		list  *BufferList
		large int // kept
		giant int // dropped
	}{
		{&BufferList{}, 900 << 10, 3 << 20},
		{&BufferList{Max: 4 << 20}, 3 << 20, 5 << 20},
	} {
		l := tc.list
		a, b, c := l.Get(), l.Get(), l.Get()
		a.Grow(300 << 10)
		b.Grow(tc.large)
		c.Grow(tc.giant)
		l.Put(a)
		l.Put(b)
		l.Put(c)
		l.Put(nil)
		runtime.GC()
		runtime.GC() // the pool is empty now; the list is not
		x, y := l.Get(), l.Get()
		if !(x == a && y == b) && !(x == b && y == a) {
			t.Fatalf("max %d: the list did not hand back the two buffers it was given", l.Max)
		}
		if x.Len() != 0 || y.Len() != 0 {
			t.Fatal("a listed buffer came back with content")
		}
		if z := l.Get(); z == a || z == b || z == c || z.Cap() > maxPooledBuffer {
			t.Fatalf("max %d: an empty list handed out a buffer of %d bytes' capacity", l.Max, z.Cap())
		}
	}
}
