package backlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

func sampleDescriptors(t *testing.T) []constraint.Descriptor {
	t.Helper()
	delayed, err := core.DelayedRetroactiveSpec(chronon.Seconds(30))
	if err != nil {
		t.Fatal(err)
	}
	monthly, err := core.VTIntervalRegularSpec(chronon.Months(1))
	if err != nil {
		t.Fatal(err)
	}
	ttReg, err := core.TTEventRegularSpec(chronon.Seconds(60))
	if err != nil {
		t.Fatal(err)
	}
	cs := []struct {
		c     constraint.Constraint
		scope constraint.Scope
	}{
		{constraint.Event{Spec: delayed}, constraint.PerRelation},
		{constraint.Event{Spec: core.RetroactiveSpec(), Basis: core.TTDeletion, Endpoint: core.VTEnd}, constraint.PerRelation},
		{constraint.InterEvent{Spec: core.SequentialEventsSpec()}, constraint.PerPartition},
		{constraint.InterEvent{Spec: ttReg}, constraint.PerRelation},
		{constraint.IntervalRegular{Spec: monthly}, constraint.PerRelation},
		{constraint.InterInterval{Spec: core.ContiguousSpec()}, constraint.PerPartition},
	}
	var out []constraint.Descriptor
	for _, x := range cs {
		d, ok := constraint.Describe(x.c, x.scope)
		if !ok {
			t.Fatalf("constraint %v not describable", x.c)
		}
		out = append(out, d)
	}
	return out
}

func TestDescriptorRoundTripThroughBytes(t *testing.T) {
	descs := sampleDescriptors(t)
	body := EncodeDeclarations(descs)
	got, err := DecodeDeclarations(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(descs) {
		t.Fatalf("decoded %d of %d", len(got), len(descs))
	}
	for i := range descs {
		if got[i].Kind != descs[i].Kind || got[i].Class != descs[i].Class ||
			got[i].Scope != descs[i].Scope || got[i].Basis != descs[i].Basis ||
			got[i].Endpoint != descs[i].Endpoint || got[i].Granularity != descs[i].Granularity {
			t.Errorf("descriptor %d drifted: %+v vs %+v", i, got[i], descs[i])
		}
		if len(got[i].Bounds) != len(descs[i].Bounds) {
			t.Fatalf("descriptor %d bounds count differs", i)
		}
		for j := range got[i].Bounds {
			if got[i].Bounds[j] != descs[i].Bounds[j] {
				t.Errorf("descriptor %d bound %d drifted", i, j)
			}
		}
	}
}

func TestDecodeDeclarationsRejectsGarbage(t *testing.T) {
	if _, err := DecodeDeclarations([]byte{0xff, 0xff, 0x01}); err == nil {
		t.Error("short catalog accepted")
	}
	// A structurally valid descriptor with an impossible class fails the
	// reconstruction check.
	var e enc
	e.u16(1)
	e.u8(uint8(constraint.DescEvent))
	e.u8(200) // no such class
	e.u8(0)
	e.u8(0)
	e.u8(0)
	e.i64(0)
	e.u16(0)
	if _, err := DecodeDeclarations(e.b); err == nil {
		t.Error("unbuildable descriptor accepted")
	}
}

func TestSaveLoadWithDeclarations(t *testing.T) {
	r := relation.New(relation.Schema{
		Name: "temps", ValidTime: element.EventStamp, Granularity: chronon.Second,
	}, tx.NewLogicalClock(1000, 10))
	en := constraint.Attach(r, constraint.PerRelation,
		constraint.Event{Spec: core.RetroactiveSpec()},
		constraint.InterEvent{Spec: core.SequentialEventsSpec()},
	)
	for _, vt := range []int64{1005, 1015} {
		if _, err := r.Insert(relation.Insertion{VT: element.EventAt(chronon.Chronon(vt))}); err != nil {
			t.Fatal(err)
		}
	}
	descs, missing := constraint.DescribeEnforcer(en)
	if missing != 0 || len(descs) != 2 {
		t.Fatalf("DescribeEnforcer = %d descs, %d missing", len(descs), missing)
	}
	path := filepath.Join(t.TempDir(), "temps.tsbl")
	if err := Save(path, Snapshot{Schema: r.Schema(), Declarations: descs, Records: r.Backlog()}); err != nil {
		t.Fatal(err)
	}
	restored, snap, err := Load(path, tx.NewLogicalClock(1000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Declarations) != 2 {
		t.Fatalf("restored %d declarations", len(snap.Declarations))
	}
	// The restored relation still enforces: a future event is rejected...
	if _, err := restored.Insert(relation.Insertion{VT: element.EventAt(99999)}); err == nil {
		t.Fatal("restored relation does not enforce retroactivity")
	}
	// ...and the warmed sequential checker rejects regression against the
	// replayed history (prior max(tt,vt) = 1020; vt 1014 < 1020).
	if _, err := restored.Insert(relation.Insertion{VT: element.EventAt(1014)}); err == nil {
		t.Fatal("restored relation does not enforce sequentiality against history")
	}
	// A valid continuation is accepted.
	if _, err := restored.Insert(relation.Insertion{VT: element.EventAt(1025)}); err != nil {
		t.Fatalf("valid continuation rejected: %v", err)
	}
}

func TestDeterminedNotDescribable(t *testing.T) {
	d := constraint.Determined{Spec: core.DeterminedSpec{M: core.M3(), Base: core.GeneralSpec()}}
	if _, ok := constraint.Describe(d, constraint.PerRelation); ok {
		t.Error("determined constraint claimed describable")
	}
	en := constraint.NewEnforcer(constraint.PerRelation, d)
	descs, missing := constraint.DescribeEnforcer(en)
	if len(descs) != 0 || missing != 1 {
		t.Errorf("DescribeEnforcer = %d, %d", len(descs), missing)
	}
}

func TestVersion1StreamStillReadable(t *testing.T) {
	// Handcraft a v1 stream: header(v1) + schema + one record + trailer.
	r := relation.New(relation.Schema{
		Name: "v1", ValidTime: element.EventStamp, Granularity: chronon.Second,
	}, tx.NewLogicalClock(0, 10))
	if _, err := r.Insert(relation.Insertion{VT: element.EventAt(5)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("TSBL")
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], 1)
	buf.Write(v[:])
	if err := writeBlock(&buf, EncodeSchema(r.Schema())); err != nil {
		t.Fatal(err)
	}
	for _, rec := range r.Backlog() {
		if err := writeBlock(&buf, AppendRecord(nil, rec)); err != nil {
			t.Fatal(err)
		}
	}
	var trailer [12]byte
	binary.LittleEndian.PutUint64(trailer[:8], 1)
	binary.LittleEndian.PutUint32(trailer[8:], crc32.Checksum(trailer[:8], castagnoli))
	buf.Write(trailer[:])

	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if snap.Schema.Name != "v1" || len(snap.Records) != 1 || len(snap.Declarations) != 0 {
		t.Errorf("v1 decode: schema %q, %d records, %d decls", snap.Schema.Name, len(snap.Records), len(snap.Declarations))
	}
}

func TestDescriptorBuildAllGroupsByScope(t *testing.T) {
	descs := sampleDescriptors(t)
	byScope, err := constraint.BuildAll(descs)
	if err != nil {
		t.Fatal(err)
	}
	if len(byScope[constraint.PerRelation]) != 4 || len(byScope[constraint.PerPartition]) != 2 {
		t.Errorf("groups: %d per-relation, %d per-partition",
			len(byScope[constraint.PerRelation]), len(byScope[constraint.PerPartition]))
	}
}

// surType aliases the surrogate type for test brevity.
type surType = surrogate.Surrogate

func TestLoadWithPerPartitionDeclarations(t *testing.T) {
	// A per-partition contiguous interval relation: after reload, each
	// life-line's checker must be warmed with that partition's history.
	r := relation.New(relation.Schema{
		Name: "rota", ValidTime: element.IntervalStamp, Granularity: chronon.Second,
	}, tx.NewLogicalClock(0, 10))
	en := constraint.Attach(r, constraint.PerPartition,
		constraint.InterInterval{Spec: core.ContiguousSpec()})
	ann := r.NewObject()
	bob := r.NewObject()
	mk := func(os surType, vs, ve int64) {
		if _, err := r.Insert(relation.Insertion{
			Object: os, VT: element.SpanOf(chronon.Chronon(vs), chronon.Chronon(ve)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk(ann, 0, 10)
	mk(bob, 100, 110)
	mk(ann, 10, 20)
	mk(bob, 110, 120)

	descs, _ := constraint.DescribeEnforcer(en)
	path := filepath.Join(t.TempDir(), "rota.tsbl")
	if err := Save(path, Snapshot{Schema: r.Schema(), Declarations: descs, Records: r.Backlog()}); err != nil {
		t.Fatal(err)
	}
	restored, _, err := Load(path, tx.NewLogicalClock(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Ann's life-line continues contiguously...
	if _, err := restored.Insert(relation.Insertion{
		Object: ann, VT: element.SpanOf(20, 30),
	}); err != nil {
		t.Fatalf("contiguous continuation rejected: %v", err)
	}
	// ...but a gap in Bob's is rejected against the replayed history.
	if _, err := restored.Insert(relation.Insertion{
		Object: bob, VT: element.SpanOf(200, 210),
	}); err == nil {
		t.Fatal("gap after reload accepted: per-partition state not warmed")
	}
}
