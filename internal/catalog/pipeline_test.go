package catalog

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/integrity"
	"repro/internal/relation"
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
