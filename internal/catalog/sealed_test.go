package catalog

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/wire"
)

// declareNonDecreasing puts e's relation on the vt-ordered log, whose full
// chunks seal into columns.
func declareNonDecreasing(t *testing.T, e *Entry) {
	t.Helper()
	if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)}); err != nil {
		t.Fatal(err)
	}
	if k := e.store.Kind(); k != storage.VTOrdered {
		t.Fatalf("declared relation stored on a %v", k)
	}
}

// sensorBatch is n two-attribute insertions at valid times vt, vt+1, ….
func sensorBatch(vt, n int) []relation.Insertion {
	ins := make([]relation.Insertion, n)
	for i := range ins {
		ins[i] = relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(vt + i)),
			Invariant: []element.Value{element.String_(fmt.Sprint("sensor-", i%3))},
			Varying:   []element.Value{element.Int(int64(vt + i))},
		}
	}
	return ins
}

// answerBytes renders a batch answer byte for byte: each item's status,
// cause, and its element as the wire encodes it.
func answerBytes(t *testing.T, items []BatchItemResult) []string {
	t.Helper()
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Status.String() + " " + it.Err
		if it.Elem != nil {
			b, err := wire.AppendElement(nil, it.Elem)
			if err != nil {
				t.Fatal(err)
			}
			out[i] += " " + string(b)
		}
	}
	return out
}

// TestSealedChunkLetsGoOfItsElements: the store copies each element it is
// handed into its chunk's columns, so the elements a batch insert stored
// are collected as soon as its caller drops them — before the chunk fills,
// with the chunk read into the result cache, and after. Answers name the
// columns' slots (storage.Answer), never an element. Nothing else keeps
// them: not the dedup window, which remembers the batch that stored them
// and answers its replay from their surrogates; not the chunk images the
// reads after the fill build and splice; not the close of one of them after
// the fill.
func TestSealedChunkLetsGoOfItsElements(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t.TempDir())
	cfg.CacheBytes = 8 << 20
	c := New(cfg)
	e, err := c.Create(relation.Schema{
		Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareNonDecreasing(t, e)
	// reads answers the four element reads, which the result cache keeps:
	// spans over the columns' slots, which name no element.
	reads := func() {
		t.Helper()
		for _, read := range []func() (answered, error){
			func() (answered, error) { return currentCtx(ctx, e) },
			func() (answered, error) { return timesliceCtx(ctx, e, 100) },
			func() (answered, error) { return rollbackCtx(ctx, e, chronon.Chronon(1<<40)) },
			func() (answered, error) { return timesliceAsOfCtx(ctx, e, 150, chronon.Chronon(1<<40)) },
		} {
			if _, err := read(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// 255 elements under one key: the head chunk, one short of full (a
	// chunk holds vec.BatchSize), read into the result cache.
	first, err := e.InsertBatchKeyed(ctx, sensorBatch(0, vec.BatchSize-1), "first", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	want := answerBytes(t, first.Items)
	for i := range want {
		want[i] = "deduped" + want[i][len("stored"):]
	}
	var freed atomic.Int32
	var gone sync.Map // surrogates of the collected elements
	for _, it := range first.Items {
		runtime.SetFinalizer(it.Elem, func(el *element.Element) { gone.Store(el.ES, true); freed.Add(1) })
	}
	first = BatchResult{}
	reads()
	collect := func(want int32) {
		for i := 0; i < 20 && freed.Load() < want; i++ {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The 256th element seals the chunk; one of the first batch is closed
	// after; the reads build images of the sealed chunk and new answers;
	// the first batch is replayed.
	if _, err := e.InsertBatchKeyed(ctx, sensorBatch(vec.BatchSize-1, 1), "second", 8, true); err != nil {
		t.Fatal(err)
	}
	if st := e.ImageStats(); st.Built != 0 {
		t.Fatalf("images built before the seal: %+v", st)
	}
	if err := remove(e, 3); err != nil {
		t.Fatal(err)
	}
	reads()
	if st := e.ImageStats(); st.Built == 0 || st.SpansSpliced == 0 {
		t.Fatalf("no image of the sealed chunk built and spliced: %+v", st)
	}
	replay, err := e.InsertBatchKeyed(ctx, sensorBatch(0, vec.BatchSize-1), "first", 7, true)
	if err != nil || replay.Deduped != vec.BatchSize-1 {
		t.Fatalf("replay: deduped %d, %v", replay.Deduped, err)
	}
	if got := answerBytes(t, replay.Items); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after the seal and a close answered\n %v\nwant\n %v", got[:4], want[:4])
	}
	replay = BatchResult{}

	// Nothing is left: no cached answer, image or window names an element.
	collect(int32(vec.BatchSize - 1))
	for es := surrogate.Surrogate(1); es < surrogate.Surrogate(vec.BatchSize); es++ {
		if _, ok := gone.Load(es); !ok {
			t.Fatalf("element %d of the sealed chunk is kept (%d collected)", es, freed.Load())
		}
	}
	if n := freed.Load(); n != int32(vec.BatchSize-1) {
		t.Fatalf("%d of the sealed chunk's %d old elements were collected", n, vec.BatchSize-1)
	}
	runtime.KeepAlive(c)
}

// TestBatchReplayAcrossSealAndClose: a batch replayed under its key is
// answered byte for byte as it was first answered — live, after a reboot
// from the log and on a follower fed its frames — on a declared relation
// whose chunk the batch went into has since sealed into columns, and one
// of whose units has since been closed.
func TestBatchReplayAcrossSealAndClose(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	e, err := c.Create(relation.Schema{
		Name: "ev", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareNonDecreasing(t, e)
	k := oneKey{"sealed-since", 200, 0x5eed}
	first, err := e.InsertBatchKeyed(ctx, sensorBatch(1000, 200), k.key, k.digest, true)
	if err != nil || first.Stored != 200 {
		t.Fatalf("first batch: stored %d, %v", first.Stored, err)
	}
	want := answerBytes(t, first.Items)
	for i := range want {
		want[i] = "deduped" + want[i][len("stored"):]
	}
	if res, err := e.InsertBatchKeyed(ctx, sensorBatch(1200, 300), "later", 1, true); err != nil || res.Stored != 300 {
		t.Fatalf("later batch: stored %d, %v", res.Stored, err)
	}
	if err := remove(e, first.Items[5].Elem.ES); err != nil {
		t.Fatal(err)
	}
	replay := func(route string, e *Entry) {
		t.Helper()
		res, err := e.InsertBatchKeyed(ctx, sensorBatch(1000, 200), k.key, k.digest, true)
		if err != nil || res.Stored != 0 || res.Deduped != 200 {
			t.Fatalf("%s: replay stored %d, deduped %d, %v", route, res.Stored, res.Deduped, err)
		}
		if got := answerBytes(t, res.Items); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay answered\n %v\nwant\n %v", route, got[:6], want[:6])
		}
	}
	replay("live", e)

	recs := recordsOf(t, fs)
	_, booted := bootErrFS(t, fs)
	eb, err := booted.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	ef, err := follower.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	for route, en := range map[string]*Entry{"boot": eb, "follower": ef} {
		if k := en.store.Kind(); k != storage.VTOrdered {
			t.Fatalf("%s: relation stored on a %v", route, k)
		}
	}
	items, err := windowAnswer(ef, k)
	if err != nil || !reflect.DeepEqual(answerBytes(t, items), want) {
		t.Fatalf("follower: the window answers %v, %v", answerBytes(t, items)[:6], err)
	}
	replay("boot", eb)

	// A vacuum past the close removes the closed unit from the relation;
	// the window answers with it as before.
	if removed, err := e.Vacuum(chronon.Chronon(1) << 40); err != nil || removed != 1 {
		t.Fatalf("Vacuum removed %d, %v", removed, err)
	}
	replay("after a vacuum", e)
}

// TestRollbackBodyIsTheBodyAndAConstant: the rollback the server answers —
// the answer where the store holds it, encoded into a body of its own
// (BenchmarkSealedPaths/rollback-body) — materializes no version, so what
// it allocates is the body's buffer and a constant, whatever the answer's
// size: the bytes besides the buffer at 512 versions are those at one, but
// for the span headers of the chunks the answer draws on. The
// buffer is the encoder's one reservation: its estimate of the versions it
// encodes (a thirty-second and two bytes a version over the larger of the
// first and the last) rounded up to the allocator's size, at most a page
// for a large body. Materializing the 512 versions would add over 60 KB.
func TestRollbackBodyIsTheBodyAndAConstant(t *testing.T) {
	cfg := testConfig(t.TempDir())
	e, err := New(cfg).Create(relation.Schema{
		Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareNonDecreasing(t, e)
	for from := 0; from < 4*vec.BatchSize; from += vec.BatchSize {
		if _, err := e.InsertBatch(context.Background(), sensorBatch(from, vec.BatchSize), nil, true); err != nil {
			t.Fatal(err)
		}
	}
	// past reports the bytes a rollback of size versions allocates besides
	// its body's buffer, the buffer's capacity and the body's length.
	past := func(size int) (extra, buffer, body int64) {
		var tt chronon.Chronon
		_ = e.Locked().View(func(r *relation.Relation) error {
			tt = r.Store().TTStartAt(size - 1)
			return nil
		})
		out, err := rollbackBody(e, tt)
		if err != nil || !bytes.HasPrefix(out, []byte(`{"elements":[`)) {
			t.Fatalf("the rollback of %d versions: %v", size, err)
		}
		// Under -race slices.Grow allocates the reservation twice (its
		// append of a made slice is not folded away there).
		buffers := int64(cap(out))
		if raceEnabled {
			buffers *= 2
		}
		// The fewest bytes of five rounds: the counter is the process's, and
		// whatever else runs beside the test only adds to it.
		const rounds, runs = 5, 20
		least := int64(math.MaxInt64)
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := rollbackBody(e, tt); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, int64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least - buffers, int64(cap(out)), int64(len(out))
	}
	one, _, _ := past(1)
	for _, size := range []int{1, 2, 64, 255, 256, 257, 511, 512} {
		extra, buffer, body := past(size)
		t.Logf("%3d versions: a %6d-byte body in a %6d-byte buffer, and %4d bytes besides", size, body, buffer, extra)
		if buffer > body+body/16+8<<10 {
			t.Fatalf("the rollback of %d versions reserved %d bytes for its %d-byte body", size, buffer, body)
		}
		// The answer's span headers grow with the chunks it draws on: up to
		// 512 versions, three at most, in a slice of four.
		if extra > one+4*spanBytes {
			t.Fatalf("the rollback of %d versions allocates %d bytes besides its body's buffer; one version's allocates %d", size, extra, one)
		}
	}
}
