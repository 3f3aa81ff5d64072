package backlog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
)

func physRelation(t *testing.T) *relation.Relation {
	t.Helper()
	schema := relation.Schema{
		Name: "phys", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "id", Type: element.KindInt}},
	}
	r := relation.New(schema, tx.NewSystemClock())
	if _, err := r.Insert(relation.Insertion{
		Invariant: []element.Value{element.Int(1)}, VT: element.EventAt(5),
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPhysicalBlockRoundTrip(t *testing.T) {
	r := physRelation(t)
	phys := Physical{Org: 2, Source: "inferred", Adopted: []uint8{1, 4}, Migrations: 3}
	var buf bytes.Buffer
	snap := Of(r)
	snap.WALLSN, snap.Physical = 17, phys
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.WALLSN != 17 || len(got.Records) != 1 {
		t.Fatalf("walLSN=%d recs=%d", got.WALLSN, len(got.Records))
	}
	if !reflect.DeepEqual(got.Physical, phys) {
		t.Fatalf("physical round-trip: got %+v, want %+v", got.Physical, phys)
	}
}

// A v3 stream (no physical block) must read back with the zero Physical:
// older snapshots keep loading, and the catalog re-advises from
// declarations as before.
func TestPhysicalBlockBackCompat(t *testing.T) {
	r := physRelation(t)
	var buf bytes.Buffer
	snap := Of(r)
	snap.WALLSN = 9
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// Rewrite the version field to 3 and drop the physical and integrity
	// blocks. The block layout after the header is schema, declarations,
	// state, physical, integrity — so a legal v3 stream is the current
	// stream minus the fourth and fifth blocks (the integrity header here
	// counts zero leaves, so no leaf chunks follow it).
	v3 := buf.Bytes()
	binary.LittleEndian.PutUint16(v3[4:6], 3)
	// Blocks: walk three blocks, then splice out the next two.
	off := 6
	for i := 0; i < 3; i++ {
		n := int(binary.LittleEndian.Uint32(v3[off:]))
		off += 4 + n + 4
	}
	cut := off
	for i := 0; i < 2; i++ {
		n := int(binary.LittleEndian.Uint32(v3[cut:]))
		cut += 4 + n + 4
	}
	stream := append(append([]byte{}, v3[:off]...), v3[cut:]...)

	got, err := Read(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got.WALLSN != 9 || len(got.Records) != 1 {
		t.Fatalf("walLSN=%d recs=%d", got.WALLSN, len(got.Records))
	}
	if !reflect.DeepEqual(got.Physical, Physical{}) {
		t.Fatalf("v3 stream yielded non-zero physical: %+v", got.Physical)
	}
}

func TestPhysicalBlockCorrupt(t *testing.T) {
	if _, err := decodePhysical([]byte{2}); err == nil {
		t.Fatal("short physical block decoded")
	}
	if _, err := decodePhysical(append(encodePhysical(Physical{Source: "declared"}), 0xFF)); err == nil {
		t.Fatal("trailing physical bytes accepted")
	}
}
