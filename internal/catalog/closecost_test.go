package catalog

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/wal"
)

// closeCostEntry builds a sealed sensor relation of n elements and returns
// it with its surrogates in arrival order.
func closeCostEntry(t testing.TB, n int) (*Entry, []surrogate.Surrogate) {
	t.Helper()
	c := New(testConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", n)
	ess := make([]surrogate.Surrogate, 0, n)
	for _, el := range current(e).Elements {
		ess = append(ess, el.ES)
	}
	return e, ess
}

// allocatedBy reports the bytes and objects allocated per call of op over
// runs calls.
func allocatedBy(runs int, op func(i int)) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestCloseCostIsIndependentOfHistory: a logical delete or a modification
// publishes a view, and the close that follows must copy one run, its spine
// block and the spine, not the relation — the bytes it allocates at 128 k
// elements exceed those at 8 k by the longer spine (56 bytes) and whatever
// the amortized growth of the relation's own slices adds, never by anything
// in proportion to n (8 bytes an element would be a megabyte).
func TestCloseCostIsIndependentOfHistory(t *testing.T) {
	const small, large, ops = 8 << 10, 128 << 10, 64
	const slack = 4 << 10
	ctx := context.Background()
	measure := func(n int) (del, mod float64) {
		e, ess := closeCostEntry(t, n)
		stride := n / (2 * ops) // spread over the sealed runs
		del, _ = allocatedBy(ops, func(i int) {
			if err := e.DeleteKeyed(ctx, ess[i*stride], ""); err != nil {
				t.Fatalf("DeleteKeyed: %v", err)
			}
		})
		mod, _ = allocatedBy(ops, func(i int) {
			vt := element.EventAt(chronon.Chronon(10 * (n + i)))
			if _, err := e.ModifyKeyed(ctx, ess[n/2+i*stride], vt, []element.Value{element.Int(1)}, ""); err != nil {
				t.Fatalf("ModifyKeyed: %v", err)
			}
		})
		return del, mod
	}
	delS, modS := measure(small)
	delL, modL := measure(large)
	t.Logf("DeleteKeyed %.0f B/op at %d, %.0f B/op at %d; ModifyKeyed %.0f and %.0f", delS, small, delL, large, modS, modL)
	if delL-delS > slack || modL-modS > slack {
		t.Fatalf("a close grows with the relation: delete %.0f → %.0f B/op, modify %.0f → %.0f B/op",
			delS, delL, modS, modL)
	}
	if delL > 16<<10 {
		t.Fatalf("DeleteKeyed at %d elements allocates %.0f B/op, want at most 16 KiB", large, delL)
	}
}

// TestKeyedInsertAllocationBudget pins what one single-element insert
// allocates in the catalog pipeline, publish included, so per-write
// bookkeeping cannot creep back. No WAL here: its group-commit goroutine
// would make the count depend on timing (the served path with WAL, Merkle
// leaf and signer measured 20 before this budget existed; this
// configuration measured 14 then, 11 with publish O(1) in runs, and 10
// with the element's values in one array).
func TestKeyedInsertAllocationBudget(t *testing.T) {
	e, _ := closeCostEntry(t, 4<<10)
	ctx := context.Background()
	vt := int64(10 * (4 << 10))
	got := testing.AllocsPerRun(200, func() {
		vt += 10
		if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(chronon.Chronon(vt)), Varying: []element.Value{element.Int(1)}}, ""); err != nil {
			t.Fatalf("InsertKeyed: %v", err)
		}
	})
	t.Logf("InsertKeyed: %.1f allocations", got)
	if got > 10 {
		t.Fatalf("InsertKeyed allocates %.1f objects per call, budget 10", got)
	}
}

// TestReplayAllocationBudget pins what boot recovery and follower apply
// allocate per version: one keyed 256-insert frame through prepare and
// redo — decode, leaf, the relation's apply, tracker, store, dedup window.
// A replayed version is its key and the one string among its values; its
// element and value array are a 256th of the frame's two slabs
// (backlog.Slab); plus the amortized growth of the slices and the window's
// map it lands in: 2.03 objects, budget that + 10 %. Before the slabs it
// was 4.02 (an element and a value array per version), and before that
// 8.03: the decoded element and its two value arrays were cloned on the
// way in, and a one-element life-line was allocated per version beside the
// two maps.
func TestReplayAllocationBudget(t *testing.T) {
	const batch, frames = 256, 24
	c := New(testConfig(t.TempDir()))
	if _, err := c.Create(relation.Schema{
		Name: "sensor", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "id", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "value", Type: element.KindInt}},
	}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	recs := make([]wal.Record, frames)
	for f := range recs {
		m := mutation{kind: walInsertBatch}
		for j := 0; j < batch; j++ {
			n := int64(f*batch + j + 1)
			m.keys = append(m.keys, fmt.Sprintf("k-%d", n))
			m.recs = append(m.recs, relation.LogRecord{Op: relation.OpInsert, TT: chronon.Chronon(10 * n), Elem: &element.Element{
				ES: surrogate.Surrogate(n), OS: 1, VT: element.EventAt(chronon.Chronon(10 * n)),
				Invariant: []element.Value{element.String_("s1")}, Varying: []element.Value{element.Int(n % 1000)},
			}})
		}
		payload, err := m.encode(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		recs[f] = wal.Record{LSN: uint64(f + 1), Kind: walInsertBatch, Rel: "sensor", Payload: payload}
	}
	next := 0
	got := testing.AllocsPerRun(frames-1, func() {
		f := c.prepare(recs[next], c.lookup("sensor"))
		if _, err := c.redo(&f); err != nil {
			t.Fatalf("redo: %v", err)
		}
		next++
	}) / batch
	t.Logf("replay: %.2f allocations per version", got)
	if got > 2.24 {
		t.Fatalf("replay allocates %.2f objects per version, budget 2.24", got)
	}
}

// BenchmarkCloseAfterPublish times a logical delete on a sealed relation
// where every write publishes a read view, so each close finds its run
// shared with a snapshot. ns/op and B/op must not follow the relation's
// size. `make bench-smoke` runs it next to BenchmarkReplayCloses.
func BenchmarkCloseAfterPublish(b *testing.B) {
	for _, n := range []int{8 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			ctx := context.Background()
			var e *Entry
			var ess []surrogate.Surrogate
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%n == 0 { // every element closed: start over on a fresh relation
					b.StopTimer()
					e, ess = closeCostEntry(b, n)
					b.StartTimer()
				}
				// A stride coprime to n visits every element once, hopping runs.
				if err := e.DeleteKeyed(ctx, ess[(i%n)*7919%n], ""); err != nil {
					b.Fatalf("DeleteKeyed: %v", err)
				}
			}
		})
	}
}

// TestPhysicalHandsOutCopies: publish shares the entry's reasons and adopted
// classes with the published snapshot instead of copying them per write, so Physical must not hand those arrays to its caller — whatever
// a consumer does to its copy, the entry and the next caller see none of it.
func TestPhysicalHandsOutCopies(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e := sealedSensor(t, c, "s", 1024) // migrated by the advisor: reasons and adopted classes both non-empty
	want := e.Physical()
	if len(want.Reasons) == 0 || len(want.Adopted) == 0 {
		t.Fatalf("set-up left nothing to alias: %+v", want)
	}
	got := e.Physical()
	for i := range got.Reasons {
		got.Reasons[i] = "scribbled"
	}
	for i := range got.Adopted {
		got.Adopted[i]++
	}
	appendSensor(t, e, 1024, 1) // a publish in between must not pick the scribbles up either
	again := e.Physical()
	if !reflect.DeepEqual(again.Reasons, want.Reasons) || !reflect.DeepEqual(again.Adopted, want.Adopted) {
		t.Fatalf("a caller's writes reached the entry:\n got %+v\nwant %+v", again, want)
	}
}
