package catalog

// Golden-frame compatibility. testdata/frames_v1.golden is a WAL written
// by the last writer that still emitted the unkeyed kinds 3/4/5 (the
// commit before the mutation pipeline), with the state that writer held
// when it stopped. It covers every frame kind 1–10: unkeyed and keyed
// insert/delete/modify, a three-element batch with mixed empty and
// non-empty keys, a declare, and a respecialize. The file is never
// regenerated — it is yesterday's bytes, and the tests prove today's
// decoder reads them and today's writer still produces them.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/wal"
)

type goldenFrame struct {
	LSN     uint64 `json:"lsn"`
	Kind    uint8  `json:"kind"`
	Rel     string `json:"rel"`
	Payload string `json:"payload"`
}

// goldenRel is a relation's observable state after a log has been
// applied: versions, dedup window, declarations, Merkle tree, and
// physical design.
type goldenRel struct {
	Versions []string          `json:"versions"`
	Keys     map[string]string `json:"keys"`
	Decls    int               `json:"decls"`
	Leaves   uint64            `json:"leaves"`
	Root     string            `json:"root"`
	Org      string            `json:"org"`
	Source   string            `json:"source"`
	Adopted  []string          `json:"adopted"`
}

type goldenFile struct {
	Note   string               `json:"note"`
	Frames []goldenFrame        `json:"frames"`
	Rels   map[string]goldenRel `json:"relations"`
}

func goldenState(e *Entry) goldenRel {
	g := goldenRel{Keys: map[string]string{}}
	_ = e.locked.View(func(r *relation.Relation) error {
		for _, el := range r.Versions() {
			g.Versions = append(g.Versions, fmt.Sprintf("%v|%v|%v|%v|%v", el.ES, el.OS, el.VT, el.TTStart, el.TTEnd))
		}
		for _, gen := range []map[string]dedupHit{e.dedup.prev, e.dedup.cur} {
			for k, h := range gen {
				s := h.op.String()
				if h.es != surrogate.None {
					s += fmt.Sprintf(" %v", h.es)
				}
				g.Keys[k] = s
			}
		}
		g.Decls = len(e.decls)
		return nil
	})
	st := e.IntegrityState()
	g.Leaves, g.Root = st.Size, hex.EncodeToString(st.Root[:])
	p := e.Physical()
	g.Org, g.Source = p.Org.String(), p.Source
	for _, c := range p.Adopted {
		g.Adopted = append(g.Adopted, c.String())
	}
	return g
}

func loadGolden(t *testing.T) (goldenFile, []wal.Record) {
	t.Helper()
	raw, err := os.ReadFile("testdata/frames_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	recs := make([]wal.Record, len(g.Frames))
	for i, f := range g.Frames {
		payload, err := hex.DecodeString(f.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		recs[i] = wal.Record{LSN: f.LSN, Kind: wal.Kind(f.Kind), Rel: f.Rel, Payload: payload}
	}
	return g, recs
}

func logicalClock() tx.Clock { return tx.NewLogicalClock(0, 10) }

// recordsOf reads back every frame the log on fs holds.
func recordsOf(t *testing.T, fs wal.FS) []wal.Record {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	recs := w.TakeRecovered()
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	return recs
}

// TestGoldenFramesReplay: decoding and replaying the golden log — at
// boot and on a follower — yields the versions, dedup keys, declarations,
// Merkle root and physical design its writer recorded.
func TestGoldenFramesReplay(t *testing.T) {
	g, recs := loadGolden(t)
	kinds := map[wal.Kind]bool{}
	for _, rec := range recs {
		kinds[rec.Kind] = true
	}
	for k := walCreate; k <= walInsertBatch; k++ {
		if !kinds[k] {
			t.Fatalf("golden log has no frame of kind %d", k)
		}
	}

	// Boot: the frames are laid into a fresh log, which must assign them
	// the LSNs they were written under (leaves hash the LSN).
	fs := wal.NewErrFS()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if lsn, err := w.Write(rec.Kind, rec.Rel, rec.Payload); err != nil || lsn != rec.LSN {
			t.Fatalf("laying frame %d: lsn %d, err %v", rec.LSN, lsn, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatalf("follower apply: %v", err)
	}

	_, booted := bootErrFS(t, fs)
	for route, c := range map[string]*Catalog{"boot": booted, "follower": follower} {
		if c.Len() != len(g.Rels) {
			t.Fatalf("%s: %d relations, want %d", route, c.Len(), len(g.Rels))
		}
		for name, want := range g.Rels {
			e, err := c.Get(name)
			if err != nil {
				t.Fatalf("%s: %v", route, err)
			}
			if got := goldenState(e); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: relation %q diverged from its writer:\n got  %+v\n want %+v", route, name, got, want)
			}
		}
	}
}

// goldenScript is the operation sequence the golden log was written by.
func goldenScript(t *testing.T, c *Catalog) {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	e, err := c.Create(eventSchema("g"))
	must(err)
	// Every operation burns one tick of the logical clock (step 10); valid
	// times run five ahead of transaction times, so the history is
	// predictive and non-decreasing.
	tick := 0
	vt := func() element.Timestamp { tick++; return element.EventAt(chronon.Chronon(10*tick + 5)) }
	a, err := insert(e, relation.Insertion{VT: vt()})
	must(err)
	b, err := e.InsertKeyed(ctx, relation.Insertion{VT: vt()}, "ik-1")
	must(err)
	cc, err := insert(e, relation.Insertion{VT: vt()})
	must(err)
	tick++
	must(remove(e, a.ES))
	_, err = modify(e, cc.ES, vt(), nil)
	must(err)
	d, err := e.InsertKeyed(ctx, relation.Insertion{VT: vt()}, "ik-2")
	must(err)
	tick++
	must(e.DeleteKeyed(ctx, b.ES, "dk-1"))
	_, err = e.ModifyKeyed(ctx, d.ES, vt(), nil, "mk-1")
	must(err)
	tick++
	res, err := e.InsertBatch(ctx, []relation.Insertion{
		{VT: element.EventAt(chronon.Chronon(10*tick + 5))},
		{VT: element.EventAt(chronon.Chronon(10*tick + 15))},
		{VT: element.EventAt(chronon.Chronon(10*tick + 25))},
	}, []string{"bk-1", "", "bk-3"}, false)
	must(err)
	tick += 2
	if res.Stored != 3 {
		t.Fatalf("batch stored %d of 3", res.Stored)
	}
	must(e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.Event{Spec: core.PredictiveSpec()}, constraint.PerRelation)}))
	// respecialize, not Respecialize: the golden writer recorded no
	// decision as a row of _sys_events, so the frames it pins are g's and
	// h's alone.
	if _, migrated, err := e.respecialize(); err != nil || !migrated {
		t.Fatalf("respecialize: migrated %v, err %v", migrated, err)
	}
	_, err = e.InsertKeyed(ctx, relation.Insertion{VT: vt()}, "ik-3")
	must(err)
	h, err := c.Create(eventSchema("h"))
	must(err)
	_, err = insert(h, relation.Insertion{VT: element.EventAt(3)})
	must(err)
}

// TestGoldenFramesReencode: the codec reproduces the golden bytes —
// decode then encode is the identity on kinds 6/7/8/10 and re-frames a
// legacy kind as its keyed kind with an empty key — and today's writer,
// run through the script that produced the golden log, emits the same
// frames under the same rule, never a kind 3/4/5.
func TestGoldenFramesReencode(t *testing.T) {
	_, golden := loadGolden(t)
	// today is what the current writer must emit for a golden frame.
	today := func(rec wal.Record) (wal.Kind, []byte) {
		if rec.Kind >= walInsert && rec.Kind <= walModify {
			return rec.Kind + walInsertKeyed - walInsert, append([]byte{0, 0}, rec.Payload...)
		}
		return rec.Kind, rec.Payload
	}
	for _, rec := range golden {
		if rec.Kind < walInsert || rec.Kind == walRespecialize {
			continue // create, declare, respecialize: not mutation frames
		}
		m, err := decodeMutation(rec.Kind, rec.Payload)
		if err != nil {
			t.Fatalf("lsn %d: %v", rec.LSN, err)
		}
		payload, err := m.encode(nil)
		if err != nil {
			t.Fatalf("lsn %d: %v", rec.LSN, err)
		}
		if wantKind, want := today(rec); m.kind != wantKind || !bytes.Equal(payload, want) {
			t.Errorf("lsn %d (kind %d) re-encoded as kind %d:\n got  %x\n want %x", rec.LSN, rec.Kind, m.kind, payload, want)
		}
	}

	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	goldenScript(t, c)
	written := recordsOf(t, fs)
	if len(written) != len(golden) {
		t.Fatalf("script wrote %d frames, golden log has %d", len(written), len(golden))
	}
	for i, got := range written {
		wantKind, want := today(golden[i])
		if got.LSN != golden[i].LSN || got.Rel != golden[i].Rel || got.Kind != wantKind || !bytes.Equal(got.Payload, want) {
			t.Errorf("frame %d: writer emitted lsn %d kind %d rel %q\n got  %x\n want lsn %d kind %d rel %q\n      %x",
				i, got.LSN, got.Kind, got.Rel, got.Payload, golden[i].LSN, wantKind, golden[i].Rel, want)
		}
	}
}

// TestFrameLeafIsTheFrameBodysLeaf: the leaf the write path, replay, the
// replication streamer and the follower hash in place — header, then
// payload where it lies — is the leaf of the frame body as the log frames
// it, for every frame of the golden log, and for a relation name longer
// than the header's stack buffer.
func TestFrameLeafIsTheFrameBodysLeaf(t *testing.T) {
	_, recs := loadGolden(t)
	recs = append(recs, wal.Record{LSN: 1 << 40, Kind: walInsertBatch, Rel: strings.Repeat("r", 300), Payload: []byte{1, 2, 3}})
	for _, rec := range recs {
		got := integrity.FrameLeaf(rec.LSN, rec.Kind, rec.Rel, rec.Payload)
		if want := integrity.LeafHash(wal.FrameBody(rec.LSN, rec.Kind, rec.Rel, rec.Payload)); got != want {
			t.Fatalf("lsn %d, kind %d: the in-place leaf %x, the frame body's %x", rec.LSN, rec.Kind, got, want)
		}
	}
}
