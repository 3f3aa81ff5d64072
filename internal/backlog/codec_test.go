package backlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/workload"
)

// buildRelation makes a relation with a little of everything: inserts,
// a deletion, a modification, all value kinds, and user-defined times.
func buildRelation(t *testing.T) *relation.Relation {
	t.Helper()
	r := relation.New(relation.Schema{
		Name:        "mix",
		ValidTime:   element.EventStamp,
		Granularity: chronon.Second,
		Invariant: []relation.Column{
			{Name: "key", Type: element.KindString},
			{Name: "race", Type: element.KindInt},
		},
		Varying: []relation.Column{
			{Name: "salary", Type: element.KindFloat},
			{Name: "active", Type: element.KindBool},
			{Name: "reviewed", Type: element.KindTime},
		},
		UserTimes: []string{"entered_by_clerk_at"},
	}, tx.NewLogicalClock(0, 10))
	ins := func(vt int64, key string, salary float64) *element.Element {
		e, err := r.Insert(relation.Insertion{
			VT: element.EventAt(chronon.Chronon(vt)),
			Invariant: []element.Value{
				element.String_(key), element.Int(7),
			},
			Varying: []element.Value{
				element.Float(salary), element.Bool(true), element.Time(chronon.Chronon(vt + 5)),
			},
			UserTimes: []chronon.Chronon{chronon.Chronon(vt + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := ins(1, "ann", 100)
	ins(2, "bob", 200)
	c := ins(3, "cod", 300)
	if err := r.Delete(a.ES); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Modify(c.ES, element.EventAt(4), []element.Value{
		element.Float(350), element.Bool(false), element.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func sameRelations(t *testing.T, a, b *relation.Relation) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	av, bv := a.Versions(), b.Versions()
	for i := range av {
		x, y := av[i], bv[i]
		if x.ES != y.ES || x.OS != y.OS || x.TTStart != y.TTStart || x.TTEnd != y.TTEnd {
			t.Fatalf("version %d stamps differ: %v vs %v", i, x, y)
		}
		if x.VT != y.VT {
			t.Fatalf("version %d VT differs: %v vs %v", i, x.VT, y.VT)
		}
		if len(x.Invariant) != len(y.Invariant) || len(x.Varying) != len(y.Varying) {
			t.Fatalf("version %d arity differs", i)
		}
		for j := range x.Invariant {
			if !x.Invariant[j].Equal(y.Invariant[j]) {
				t.Fatalf("version %d invariant %d differs", i, j)
			}
		}
		for j := range x.Varying {
			if !x.Varying[j].Equal(y.Varying[j]) {
				t.Fatalf("version %d varying %d differs", i, j)
			}
		}
		for j := range x.UserTimes {
			if x.UserTimes[j] != y.UserTimes[j] {
				t.Fatalf("version %d user time %d differs", i, j)
			}
		}
	}
	if len(a.Backlog()) != len(b.Backlog()) {
		t.Fatalf("backlog length differs")
	}
}

func TestRoundTrip(t *testing.T) {
	r := buildRelation(t)
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	schema, records := snap.Schema, snap.Records
	if schema.Name != "mix" || len(schema.Invariant) != 2 || len(schema.Varying) != 3 || len(schema.UserTimes) != 1 {
		t.Fatalf("schema mangled: %+v", schema)
	}
	restored, err := relation.Replay(schema, tx.NewLogicalClock(0, 10), records)
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, r, restored)

	// Historical states are identical too.
	for tt := int64(0); tt <= 70; tt += 10 {
		a := r.Rollback(chronon.Chronon(tt))
		b := restored.Rollback(chronon.Chronon(tt))
		if len(a) != len(b) {
			t.Fatalf("rollback(%d): %d vs %d elements", tt, len(a), len(b))
		}
	}
}

func TestRoundTripEmptyRelation(t *testing.T) {
	r := relation.New(relation.Schema{
		Name: "empty", ValidTime: element.EventStamp, Granularity: chronon.Second,
	}, tx.NewLogicalClock(0, 1))
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	schema, records := snap.Schema, snap.Records
	if len(records) != 0 || schema.Name != "empty" {
		t.Fatalf("empty round trip: %d records", len(records))
	}
}

func TestRoundTripIntervalRelation(t *testing.T) {
	r, err := workload.Assignments(workload.Config{Seed: 9, N: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	schema, records := snap.Schema, snap.Records
	restored, err := relation.Replay(schema, tx.NewLogicalClock(0, 1), records)
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, r, restored)
}

func TestReplayContinuesCleanly(t *testing.T) {
	r := buildRelation(t)
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	schema, records := snap.Schema, snap.Records
	clock := tx.NewLogicalClock(0, 10)
	restored, err := relation.Replay(schema, clock, records)
	if err != nil {
		t.Fatal(err)
	}
	// New inserts must not collide with replayed surrogates or go back in
	// transaction time.
	maxTT := records[len(records)-1].TT
	e, err := restored.Insert(relation.Insertion{
		VT: element.EventAt(1),
		Invariant: []element.Value{
			element.String_("dee"), element.Int(1),
		},
		Varying: []element.Value{
			element.Float(1), element.Bool(true), element.Time(0),
		},
		UserTimes: []chronon.Chronon{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.TTStart <= maxTT {
		t.Errorf("new tt %v not after replayed max %v", e.TTStart, maxTT)
	}
	for _, old := range restored.Versions()[:restored.Len()-1] {
		if old.ES == e.ES {
			t.Fatalf("surrogate collision with %v", old)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	r := buildRelation(t)
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flipping any single byte must be detected (checksums cover bodies,
	// framing catches the rest).
	for pos := 0; pos < len(pristine); pos++ {
		mutated := append([]byte(nil), pristine...)
		mutated[pos] ^= 0x40
		got, err := Read(bytes.NewReader(mutated))
		if err == nil {
			// A flip confined to framing could still parse; it must then
			// fail replay or produce a different history, never silently
			// match.
			if _, rerr := relation.Replay(r.Schema(), tx.NewLogicalClock(0, 10), got.Records); rerr == nil {
				t.Fatalf("byte flip at %d went completely undetected", pos)
			}
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	r := buildRelation(t)
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
	if _, err := Read(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("missing final byte undetected")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE\x01\x00"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Read(bytes.NewReader([]byte("TSBL\xff\x00"))); err == nil {
		t.Error("future version accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.tsbl")
	r := buildRelation(t)
	if err := Save(path, Of(r)); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Load(path, tx.NewLogicalClock(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	sameRelations(t, r, restored)
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	if _, _, err := Load(filepath.Join(dir, "missing.tsbl"), tx.NewLogicalClock(0, 10)); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// TestSaveSyncsTheDirectoryAfterTheRename pins what makes a snapshot
// durable: the catalog deletes the WAL segments a snapshot covers as soon
// as Save returns, and the WAL fsyncs its own directory when it does, so
// the rename must have reached the disk by then — it is only a directory
// entry until the parent is fsynced. Save is the one way a snapshot gets
// written (the facade's SaveBacklog*, the catalog's snapshotTo), so the
// order holds for every caller.
func TestSaveSyncsTheDirectoryAfterTheRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.tsbl")
	real := syncDir
	defer func() { syncDir = real }()
	var synced []string
	syncDir = func(d string) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the rename: %v", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Error("directory synced with the temp file still in it")
		}
		synced = append(synced, d)
		real(d)
	}
	// A first write and an overwrite: one directory sync each, done by the
	// time Save returns.
	for i := 1; i <= 2; i++ {
		if err := Save(path, Of(buildRelation(t))); err != nil {
			t.Fatal(err)
		}
		if len(synced) != i || synced[i-1] != dir {
			t.Fatalf("after save %d the directory syncs are %q, want %d of %q", i, synced, i, dir)
		}
	}
	// A save that never renamed has nothing to make durable.
	if err := Save(filepath.Join(dir, "missing", "rel.tsbl"), Of(buildRelation(t))); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if len(synced) != 2 {
		t.Fatalf("a failed save synced a directory: %q", synced)
	}
}

func TestReplayValidation(t *testing.T) {
	schema := relation.Schema{Name: "x", ValidTime: element.EventStamp, Granularity: chronon.Second}
	mk := func(es, os uint64, tt int64) relation.LogRecord {
		return relation.LogRecord{Op: relation.OpInsert, TT: chronon.Chronon(tt), Elem: &element.Element{
			ES: surrogate.Surrogate(es), OS: surrogate.Surrogate(os), VT: element.EventAt(0),
		}}
	}
	cases := []struct {
		name string
		recs []relation.LogRecord
	}{
		{"tt regression", []relation.LogRecord{mk(1, 1, 10), mk(2, 1, 5)}},
		{"duplicate es", []relation.LogRecord{mk(1, 1, 10), mk(1, 1, 20)}},
		{"missing surrogate", []relation.LogRecord{mk(0, 1, 10)}},
		{"delete unknown", []relation.LogRecord{{Op: relation.OpDelete, TT: 10, Elem: &element.Element{ES: 9}}}},
		{"double delete", []relation.LogRecord{
			mk(1, 1, 10),
			{Op: relation.OpDelete, TT: 20, Elem: &element.Element{ES: 1}},
			{Op: relation.OpDelete, TT: 30, Elem: &element.Element{ES: 1}},
		}},
		{"nil element", []relation.LogRecord{{Op: relation.OpInsert, TT: 10}}},
		{"bad op", []relation.LogRecord{{Op: relation.Op(9), TT: 10, Elem: &element.Element{ES: 1, OS: 1}}}},
	}
	for _, c := range cases {
		if _, err := relation.Replay(schema, tx.NewLogicalClock(0, 1), c.recs); err == nil {
			t.Errorf("%s: replay accepted", c.name)
		}
	}
	// A valid history replays.
	good := []relation.LogRecord{
		mk(1, 1, 10), mk(2, 2, 20),
		{Op: relation.OpDelete, TT: 30, Elem: &element.Element{ES: 1}},
	}
	r, err := relation.Replay(schema, tx.NewLogicalClock(0, 1), good)
	if err != nil {
		t.Fatalf("valid replay failed: %v", err)
	}
	if len(r.Current()) != 1 {
		t.Errorf("current = %d", len(r.Current()))
	}
}
