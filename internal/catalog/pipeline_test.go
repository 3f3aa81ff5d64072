package catalog

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/vec"
	"repro/internal/wal"
)

// pipelineLog is a primary's log over two relations: a and b created, then
// rounds of a single insert into a and a four-element unkeyed batch into b
// (kind 11), so frames of both relations and both shapes alternate.
func pipelineLog(t *testing.T, rounds int) []wal.Record {
	t.Helper()
	fs := wal.NewErrFS()
	_, primary := bootErrFS(t, fs)
	a, err := primary.Create(eventSchema("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := primary.Create(eventSchema("b"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := insert(a, relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}); err != nil {
			t.Fatal(err)
		}
		ins := make([]relation.Insertion, 4)
		for j := range ins {
			ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(10*i + j))}
		}
		if _, err := b.InsertBatch(context.Background(), ins, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	return recordsOf(t, fs)
}

// renderCurrent is a relation's current state as its readers see it.
func renderCurrent(c *Catalog, name string) string {
	e, err := c.Get(name)
	if err != nil {
		return err.Error()
	}
	var sb strings.Builder
	for _, el := range current(e).Elements {
		fmt.Fprintln(&sb, el)
	}
	return sb.String()
}

// bootOver writes recs to a fresh log and boots a catalog over it.
func bootOver(t *testing.T, recs []wal.Record) error {
	t.Helper()
	fs := wal.NewErrFS()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if lsn, err := w.Write(rec.Kind, rec.Rel, rec.Payload); err != nil || lsn != rec.LSN {
			t.Fatalf("record %d: written at lsn %d, %v; want lsn %d", i, lsn, err, rec.LSN)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	return New(Config{NewClock: logicalClock, WAL: w}).Open()
}

// settleGoroutines waits, briefly, for the goroutine count to come back
// down to base: a goroutine that signalled its end is still counted until
// it has returned.
func settleGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the replay", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUndecodableFrameStopsReplayWhereItStands: a CRC-valid frame whose
// payload does not decode, in the middle of a log, fails boot and follower
// apply with the error and LSN the sequential replay reported — decoded
// ahead or not, the applier reports it when it reaches the frame. The
// other relation shows every frame before it; no frame after it applies.
func TestUndecodableFrameStopsReplayWhereItStands(t *testing.T) {
	recs := pipelineLog(t, 40)
	bad := -1
	for i := len(recs) / 2; bad < 0; i++ {
		if recs[i].Rel == "b" && recs[i].Kind == walInsertBatchOneKey {
			bad = i
		}
	}
	batch := append([]byte(nil), recs[bad].Payload...)
	// The second record's stamp kind: u16 key length, u32 n, digest and
	// stored count, then u32 length | op, tt, es, os, kind for each record.
	rec0 := 2 + 12
	rec1 := rec0 + 4 + int(binary.LittleEndian.Uint32(batch[rec0:]))
	batch[rec1+4+1+8+8+8] = 7
	for _, tc := range []struct {
		name    string
		kind    wal.Kind
		payload []byte
		want    string
	}{
		{"key", walInsertKeyed, []byte{0}, "catalog: frame kind 6: truncated key length"},
		{"batch", walInsertBatchOneKey, batch, "catalog: frame kind 11: batch item 1: backlog: corrupt or truncated stream: unknown stamp kind 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := append([]wal.Record(nil), recs...)
			log[bad].Kind, log[bad].Payload = tc.kind, tc.payload
			lsn := log[bad].LSN

			if err := bootOver(t, log); err == nil || err.Error() != fmt.Sprintf("catalog: wal replay, lsn %d: %s", lsn, tc.want) {
				t.Errorf("boot: %v, want lsn %d: %s", err, lsn, tc.want)
			}

			follower := New(Config{Follower: true, NewClock: logicalClock})
			err := follower.ApplyReplicated(log)
			if err == nil || err.Error() != fmt.Sprintf("catalog: replicated apply, lsn %d: %s", lsn, tc.want) {
				t.Errorf("follower: %v, want lsn %d: %s", err, lsn, tc.want)
			}
			prefix := New(Config{Follower: true, NewClock: logicalClock})
			if err := prefix.ApplyReplicated(recs[:bad]); err != nil {
				t.Fatal(err)
			}
			if got, want := renderCurrent(follower, "a"), renderCurrent(prefix, "a"); got != want {
				t.Errorf("a shows\n%s\nwant every frame before lsn %d:\n%s", got, lsn, want)
			}
			fb, _ := follower.Get("b")
			if got, want := fb.AppliedLSN(), recs[bad-1].LSN; got >= lsn || got > want {
				t.Errorf("b applied through lsn %d; the failed frame is %d", got, lsn)
			}
		})
	}
}

// TestUndecodableFrameBelowTheWatermarkIsSkipped: a re-shipped frame the
// relation has applied already is skipped whether or not its payload
// decodes — the sequential replay never decoded it — and the frames after
// it apply. Both calls hold more than one group of frames, so the frames
// are prepared ahead of apply.
func TestUndecodableFrameBelowTheWatermarkIsSkipped(t *testing.T) {
	recs := pipelineLog(t, 80)
	half := len(recs) / 2
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs[:half]); err != nil {
		t.Fatal(err)
	}
	reship := append([]wal.Record(nil), recs...)
	for i := 2; i < half; i++ {
		reship[i].Payload = []byte{0xff}
	}
	if err := follower.ApplyReplicated(reship); err != nil {
		t.Fatalf("re-shipped frames below the watermark: %v", err)
	}
	whole := New(Config{Follower: true, NewClock: logicalClock})
	if err := whole.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if got, want := renderCurrent(follower, name), renderCurrent(whole, name); got != want {
			t.Errorf("%s shows\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestReshipToRelationsAtDifferentWatermarks: a follower whose relation a
// has applied the whole log and b only its first half is re-shipped the
// whole log, frames of the two alternating: each frame is judged by its
// own relation's watermark, so b's second half applies and the follower
// ends where one that applied the log once does, Merkle heads included.
func TestReshipToRelationsAtDifferentWatermarks(t *testing.T) {
	recs := pipelineLog(t, 80)
	half := recs[len(recs)/2].LSN
	var first []wal.Record
	for _, rec := range recs {
		if rec.Rel == "a" || rec.LSN <= half {
			first = append(first, rec)
		}
	}
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(first); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	whole := New(Config{Follower: true, NewClock: logicalClock})
	if err := whole.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if got, want := renderCurrent(follower, name), renderCurrent(whole, name); got != want {
			t.Errorf("%s shows\n%s\nwant\n%s", name, got, want)
		}
		fe, _ := follower.Get(name)
		we, _ := whole.Get(name)
		gotSize, gotRoot, _ := fe.MerkleHead()
		wantSize, wantRoot, _ := we.MerkleHead()
		if gotSize != wantSize || gotRoot != wantRoot {
			t.Errorf("%s: Merkle head %d %x, want %d %x", name, gotSize, gotRoot, wantSize, wantRoot)
		}
	}
}

// TestCoveredFrameIsLeftUnread: a frame its relation already covers — a
// boot's log tail under a snapshot, a follower's re-shipped frames — is
// skipped by redo, so prepare neither decodes nor hashes it: it allocates
// nothing and carries no mutation and no leaf.
func TestCoveredFrameIsLeftUnread(t *testing.T) {
	recs := pipelineLog(t, 8)
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		var f frame
		e := follower.lookup(rec.Rel)
		if allocs := testing.AllocsPerRun(4, func() { f = follower.prepare(rec, e) }); allocs != 0 {
			t.Errorf("lsn %d (kind %d): prepare allocates %.0f objects", rec.LSN, rec.Kind, allocs)
		}
		if f.m.recs != nil || f.err != nil || f.leaf != (integrity.Hash{}) {
			t.Errorf("lsn %d (kind %d): prepare read a covered frame: %d records, %v, leaf %x", rec.LSN, rec.Kind, len(f.m.recs), f.err, f.leaf)
		}
	}
	// The same frames, uncovered, are read.
	fresh := New(Config{Follower: true, NewClock: logicalClock})
	if f := fresh.prepare(recs[len(recs)-1], nil); f.m.recs == nil || f.leaf == (integrity.Hash{}) {
		t.Errorf("an uncovered batch frame prepared to %d records, leaf %x", len(f.m.recs), f.leaf)
	}
}

// TestReplayLeavesNothingRunning: the decoder replay starts is gone when
// replay returns, after a whole log and after ones that fail early with
// many frames left to decode; and it reads no record after the return
// (the payloads are overwritten then — under -race, a decoder still
// reading them is a reported race).
func TestReplayLeavesNothingRunning(t *testing.T) {
	recs := pipelineLog(t, 200)
	base := runtime.NumGoroutine()
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base, "after a whole log")

	failing := func(when string, log []wal.Record) {
		t.Helper()
		log = append([]wal.Record(nil), log...)
		for i := range log {
			log[i].Payload = append([]byte(nil), log[i].Payload...)
		}
		if err := New(Config{Follower: true, NewClock: logicalClock}).ApplyReplicated(log); err == nil {
			t.Fatalf("%s: applied", when)
		}
		for _, rec := range log {
			for i := range rec.Payload { // a loop, not clear: -race sees these writes
				rec.Payload[i] = 0
			}
		}
		settleGoroutines(t, base, when)
	}
	bad := append([]wal.Record(nil), recs...)
	bad[2].Kind, bad[2].Payload = walInsertKeyed, []byte{0}
	failing("an undecodable third frame", bad)

	// Large batch frames without their create: the first fails at once,
	// while the decoder is busy with the frames after it.
	fs := wal.NewErrFS()
	_, primary := bootErrFS(t, fs)
	e, err := primary.Create(eventSchema("big"))
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]relation.Insertion, 8192)
	for f := 0; f < 4; f++ {
		for j := range ins {
			ins[j] = relation.Insertion{VT: element.EventAt(chronon.Chronon(len(ins)*f + j))}
		}
		if _, err := e.InsertBatch(context.Background(), ins, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	failing("a log whose first frame names no relation", recordsOf(t, fs)[1:])
}

// TestVacuumFreesTheFrameItEmptied: a replayed batch frame's versions share
// one element array and one value array (backlog.Slab). Closing and
// vacuuming all of them but one must free those arrays — the survivor
// moves to a copy of its own — so both become unreachable and the live
// heap drops by at least the frame's arrays and the closed copies; what
// readers see at and after the horizon does not change. The frame is one
// version short of a full chunk: the version that fills a chunk seals it
// into columns, and the store lets go of the frame then, before any vacuum
// (TestSealedChunkLetsGoOfItsElements).
func TestVacuumFreesTheFrameItEmptied(t *testing.T) {
	const n = vec.BatchSize - 1
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(relation.Schema{
		Name: "sensor", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "id", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "value", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := mutation{kind: walInsertBatchOneKey, oneKey: oneKey{n: n}}
	for j := 1; j <= n; j++ {
		m.recs = append(m.recs, relation.LogRecord{Op: relation.OpInsert, TT: chronon.Chronon(10 * j), Elem: &element.Element{
			ES: surrogate.Surrogate(j), OS: surrogate.Surrogate(j), VT: element.EventAt(chronon.Chronon(j)),
			Invariant: []element.Value{element.String_("s1")}, Varying: []element.Value{element.Int(int64(j))},
		}})
	}
	_, payload := mustEncode(t, m)
	m = mutation{}
	if err := c.replay([]wal.Record{{LSN: 1, Kind: walInsertBatchOneKey, Rel: "sensor", Payload: payload}}); err != nil {
		t.Fatal(err)
	}
	// The first version and its first value begin the frame's two arrays;
	// each counts itself when the collector finds its array unreachable.
	var freed atomic.Int32
	_ = e.Locked().View(func(r *relation.Relation) error {
		first, _ := r.ByES(1)
		runtime.SetFinalizer(first, func(*element.Element) { freed.Add(1) })
		runtime.SetFinalizer(&first.Invariant[0], func(*element.Value) { freed.Add(1) })
		return nil
	})
	for j := 1; j < n; j++ {
		if err := remove(e, surrogate.Surrogate(j)); err != nil {
			t.Fatal(err)
		}
	}
	// render prints the backlog records of versions alive after horizon,
	// the current state and a time-slice at the survivor's valid time.
	render := func(horizon chronon.Chronon) (backlog, cur, slice string) {
		_ = e.Locked().View(func(r *relation.Relation) error {
			var sb strings.Builder
			for _, rec := range r.Backlog() {
				if rec.Elem.TTEnd > horizon {
					fmt.Fprintln(&sb, rec.Op, rec.TT, rec.Elem)
				}
			}
			backlog, cur, slice = sb.String(), fmt.Sprint(r.Current()), fmt.Sprint(r.Timeslice(n))
			return nil
		})
		return
	}
	var horizon chronon.Chronon
	_ = e.Locked().View(func(r *relation.Relation) error {
		horizon = r.Backlog()[len(r.Backlog())-1].TT
		return nil
	})
	wantBacklog, wantCur, wantSlice := render(horizon)
	if strings.Count(wantBacklog, "\n") != 1 || wantCur == "[]" || wantSlice != wantCur {
		t.Fatalf("set-up: the survivor is not alone: backlog %s, current %s, time-slice %s", wantBacklog, wantCur, wantSlice)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	removed, err := e.Vacuum(horizon)
	if err != nil || removed != n-1 {
		t.Fatalf("Vacuum = %d, %v; want %d", removed, err, n-1)
	}
	// The value array is reachable from the element array until the
	// latter's finalizer has run, and a finalized array is freed by the
	// cycle after its finalizer: a few cycles, then one more.
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the frame's two arrays became unreachable after the vacuum", freed.Load())
		}
		runtime.GC()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if backlog, cur, slice := render(chronon.MinChronon); backlog != wantBacklog || cur != wantCur || slice != wantSlice {
		t.Errorf("vacuum changed what readers see:\nbacklog %s, want %s\ncurrent %s, want %s\ntime-slice %s, want %s",
			backlog, wantBacklog, cur, wantCur, slice, wantSlice)
	}
	elem, val := int64(unsafe.Sizeof(element.Element{})), int64(unsafe.Sizeof(element.Value{}))
	frame := n*elem + 2*n*val
	closed := (n - 1) * elem
	drop := int64(before.HeapAlloc) - int64(after.HeapAlloc)
	t.Logf("live heap dropped %d bytes: the frame's arrays are %d, the closed copies %d", drop, frame, closed)
	if drop < frame+closed {
		t.Fatalf("live heap dropped %d bytes; the frame's arrays (%d) and the closed copies (%d) should have gone", drop, frame, closed)
	}
}

// TestClaimedBatchSizesAreNotAllocated: a kind-11 frame claiming 2^32 − 1
// units, stored or not, with a handful of bytes behind the claim, decodes
// inside the mutation decoder's bound — the slab its records would decode
// into is sized by the bytes, not the claim — and is refused.
func TestClaimedBatchSizesAreNotAllocated(t *testing.T) {
	head := func(n, stored uint32) []byte {
		b := binary.LittleEndian.AppendUint16(nil, 0)
		b = binary.LittleEndian.AppendUint32(b, n)
		b = binary.LittleEndian.AppendUint32(b, 0)
		return binary.LittleEndian.AppendUint32(b, stored)
	}
	const most = 1<<32 - 1
	zeros := make([]byte, 1024)
	for name, b := range map[string][]byte{
		"all stored":           append(head(most, most), zeros[:40]...),
		"stored indexes":       append(head(most, 128), zeros...),
		"as many as the bytes": append(head(256, 256), zeros...),
	} {
		var err error
		fuzzcost.Mutation.Bound(t, len(b), func() { _, err = decodeMutation(walInsertBatchOneKey, b) })
		if err == nil {
			t.Errorf("%s: a frame of %d bytes claiming %d units decoded", name, len(b), uint32(most))
		}
	}
}
