package backlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/fuzzcost"
	"repro/internal/integrity"
	"repro/internal/relation"
	"repro/internal/tx"
)

func integRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	schema := relation.Schema{
		Name: "ig", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "id", Type: element.KindInt}},
	}
	r := relation.New(schema, tx.NewSystemClock())
	for i := 0; i < n; i++ {
		if _, err := r.Insert(relation.Insertion{
			Invariant: []element.Value{element.Int(int64(i))}, VT: element.EventAt(chronon.Chronon(i + 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func sampleIntegrity(t *testing.T, nLeaves int) Integrity {
	t.Helper()
	tr := integrity.NewTree()
	for i := 0; i < nLeaves; i++ {
		tr.Append(integrity.LeafHash([]byte{byte(i), byte(i >> 8)}))
	}
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(t.TempDir(), "key"))
	if err != nil {
		t.Fatal(err)
	}
	sr := signer.Sign("ig", tr.Size(), tr.Root())
	return Integrity{Tracked: true, Leaves: tr.Leaves(), Root: &sr}
}

func TestIntegrityBlockRoundTrip(t *testing.T) {
	r := integRelation(t, 3)
	ig := sampleIntegrity(t, 5)
	path := filepath.Join(t.TempDir(), "ig.tsbl")
	snap := Of(r)
	snap.WALLSN, snap.Physical, snap.Integrity = 8, Physical{Org: 1, Source: "declared"}, ig
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	r2, loaded, err := Load(path, tx.NewSystemClock())
	if err != nil {
		t.Fatal(err)
	}
	walLSN, phys, got := loaded.WALLSN, loaded.Physical, loaded.Integrity
	if walLSN != 8 || phys.Org != 1 || r2.Len() != 3 {
		t.Fatalf("walLSN=%d phys=%+v count=%d", walLSN, phys, r2.Len())
	}
	if !got.Tracked || len(got.Leaves) != 5 || got.Root == nil {
		t.Fatalf("integrity round-trip: %+v", got)
	}
	for i := range ig.Leaves {
		if got.Leaves[i] != ig.Leaves[i] {
			t.Fatalf("leaf %d differs", i)
		}
	}
	if got.Root.Rel != "ig" || got.Root.Size != 5 || got.Root.Root != ig.Root.Root {
		t.Fatalf("root differs: %+v", got.Root)
	}
	if !integrity.VerifyRoot(ig.Root.Key, *got.Root) {
		t.Fatal("persisted signature no longer verifies")
	}
	// The rebuilt tree agrees with the original.
	if integrity.NewTreeFromLeaves(got.Leaves).Root() != integrity.NewTreeFromLeaves(ig.Leaves).Root() {
		t.Fatal("rebuilt tree root differs")
	}
}

func TestIntegrityBlockUntracked(t *testing.T) {
	r := integRelation(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, Of(r)); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ig := snap.Integrity
	if ig.Tracked || ig.Leaves != nil || ig.Root != nil {
		t.Fatalf("zero integrity round-trip: %+v", ig)
	}
}

// TestSnapshotShardCorruptionMatrix is the snapshot leg of the
// corruption matrix: flipping one bit of every byte of a serialized
// shard must make the load fail (zero false negatives), and the clean
// shard must keep loading (zero false positives).
func TestSnapshotShardCorruptionMatrix(t *testing.T) {
	r := integRelation(t, 4)
	ig := sampleIntegrity(t, 6)
	var buf bytes.Buffer
	snap := Of(r)
	snap.WALLSN, snap.Physical, snap.Integrity = 4, Physical{Org: 2, Source: "inferred"}, ig
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if _, err := Read(bytes.NewReader(clean)); err != nil {
		t.Fatalf("false positive on clean shard: %v", err)
	}
	for off := 0; off < len(clean); off++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), clean...)
			bad[off] ^= 1 << bit
			if _, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit %d of byte %d flipped undetected", bit, off)
			}
		}
	}
	// Truncations must fail too.
	for _, cut := range []int{1, len(clean) / 2, len(clean) - 1} {
		if _, err := Read(bytes.NewReader(clean[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes undetected", cut)
		}
	}
}

// TestClaimedSizesAreNotAllocated: a count or a length the stream claims is
// not allocated before the bytes behind it are read. The integrity header of
// an empty relation's 116-byte snapshot, re-checksummed to claim 2^28 − 1
// leaves, once allocated 8 GiB for them and killed the process; a block
// length prefix with nothing behind it allocated the 16 MiB it claimed. Both
// are refused as corrupt within the snapshot decoder's allocation bound.
func TestClaimedSizesAreNotAllocated(t *testing.T) {
	var buf bytes.Buffer
	schema := relation.Schema{Name: "seed", ValidTime: element.EventStamp, Granularity: chronon.Second}
	if err := Write(&buf, Snapshot{Schema: schema, Integrity: Integrity{Tracked: true}}); err != nil {
		t.Fatal(err)
	}
	leaves := buf.Bytes()
	at := bytes.Index(leaves, []byte(itgyMagic))
	hdr := leaves[at : at+len(encodeIntegrityHeader(Integrity{Tracked: true}))]
	binary.LittleEndian.PutUint64(hdr[len(itgyMagic)+1:], maxLeaves-1)
	binary.LittleEndian.PutUint32(leaves[at+len(hdr):], crc32.Checksum(hdr, castagnoli))
	if len(leaves) != 116 {
		t.Fatalf("the crafted stream is %d bytes, want 116", len(leaves))
	}
	block := binary.LittleEndian.AppendUint32(append([]byte(nil), leaves[:at-4]...), maxBody)
	for name, in := range map[string][]byte{"leaf count": leaves, "block length": block} {
		var err error
		fuzzcost.Snapshot.Bound(t, len(in), func() { _, err = Read(bytes.NewReader(in)) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read %v, want ErrCorrupt", name, err)
		}
	}
}
