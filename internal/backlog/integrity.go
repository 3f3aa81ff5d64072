package backlog

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/integrity"
)

// The integrity block persists a relation's Merkle state with its
// snapshot: the full leaf sequence (32 bytes per committed WAL frame)
// and a root signed over exactly those leaves. It is written at the same lock point
// as the walLSN state block, so the persisted tree size always equals
// the history the snapshot claims — replayed WAL records past walLSN
// append their leaves exactly once.
//
// Layout: one header block ("ITGY" magic, tracked flag, leaf count,
// optional signed root), then the leaves in chunked blocks so a long
// history never exceeds the per-block size bound.

const (
	itgyMagic = "ITGY"
	// leavesPerChunk keeps each leaf block (32 bytes/leaf) around 4 MiB,
	// comfortably under maxBody.
	leavesPerChunk = 131072
	// maxLeaves bounds a persisted tree; far above any realistic history,
	// far below an allocation attack.
	maxLeaves = 1 << 28
)

// Integrity is the journaled integrity state of a relation.
type Integrity struct {
	// Tracked reports whether a Merkle tree was being maintained. False
	// distinguishes "integrity disabled" from "tree of size zero".
	Tracked bool
	// Leaves is the full leaf-hash sequence of the relation's tree.
	Leaves []integrity.Hash
	// Root is the primary's signature over the root of Leaves, nil on a
	// follower (it holds no key) and in shards written before a relation's
	// first seal by older builds, which persisted the last per-commit seal.
	Root *integrity.SignedRoot
}

func encodeIntegrityHeader(ig Integrity) []byte {
	var e enc
	e.b = append(e.b, itgyMagic...)
	if ig.Tracked {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(uint64(len(ig.Leaves)))
	if ig.Root == nil {
		e.u8(0)
		return e.b
	}
	e.u8(1)
	e.str(ig.Root.Rel)
	e.u64(ig.Root.Size)
	e.b = append(e.b, ig.Root.Root[:]...)
	e.u16(uint16(len(ig.Root.Sig)))
	e.b = append(e.b, ig.Root.Sig...)
	e.u16(uint16(len(ig.Root.Key)))
	e.b = append(e.b, ig.Root.Key...)
	return e.b
}

func decodeIntegrityHeader(b []byte) (ig Integrity, leafCount uint64, err error) {
	if len(b) < len(itgyMagic) || string(b[:len(itgyMagic)]) != itgyMagic {
		return Integrity{}, 0, fmt.Errorf("%w: integrity block lacks its magic", ErrCorrupt)
	}
	d := dec{b: b[len(itgyMagic):]}
	ig.Tracked = d.u8() != 0
	leafCount = d.u64()
	hasRoot := d.u8() != 0
	if hasRoot {
		var sr integrity.SignedRoot
		sr.Rel = d.str()
		sr.Size = d.u64()
		if d.err == nil && len(d.b) >= integrity.HashSize {
			copy(sr.Root[:], d.b[:integrity.HashSize])
			d.b = d.b[integrity.HashSize:]
		} else {
			d.fail()
		}
		if n := int(d.u16()); d.err == nil && len(d.b) >= n {
			sr.Sig = append([]byte(nil), d.b[:n]...)
			d.b = d.b[n:]
		} else {
			d.fail()
		}
		if n := int(d.u16()); d.err == nil && len(d.b) >= n {
			sr.Key = append([]byte(nil), d.b[:n]...)
			d.b = d.b[n:]
		} else {
			d.fail()
		}
		ig.Root = &sr
	}
	if d.err != nil {
		return Integrity{}, 0, d.err
	}
	if len(d.b) != 0 {
		return Integrity{}, 0, fmt.Errorf("%w: trailing integrity bytes", ErrCorrupt)
	}
	if leafCount > maxLeaves {
		return Integrity{}, 0, fmt.Errorf("%w: integrity block claims %d leaves", ErrCorrupt, leafCount)
	}
	return ig, leafCount, nil
}

// writeIntegrity emits the header block and the chunked leaf blocks.
func writeIntegrity(w io.Writer, ig Integrity) error {
	if err := writeBlock(w, encodeIntegrityHeader(ig)); err != nil {
		return err
	}
	for off := 0; off < len(ig.Leaves); off += leavesPerChunk {
		end := off + leavesPerChunk
		if end > len(ig.Leaves) {
			end = len(ig.Leaves)
		}
		chunk := make([]byte, 0, (end-off)*integrity.HashSize)
		for _, l := range ig.Leaves[off:end] {
			chunk = append(chunk, l[:]...)
		}
		if err := writeBlock(w, chunk); err != nil {
			return err
		}
	}
	return nil
}

// readIntegrity reads the header block and the chunked leaf blocks.
func readIntegrity(r *bufio.Reader) (Integrity, error) {
	body, err := readBlock(r)
	if err != nil {
		return Integrity{}, err
	}
	ig, leafCount, err := decodeIntegrityHeader(body)
	if err != nil {
		return Integrity{}, err
	}
	// Leaves is sized once its chunks have been read: the header's count is
	// a claim, and sizing for it up front would let a CRC-valid header of a
	// few bytes allocate gigabytes.
	var chunks [][]byte
	for read := uint64(0); read < leafCount; {
		chunk, err := readBlock(r)
		if err != nil {
			return Integrity{}, err
		}
		if len(chunk)%integrity.HashSize != 0 || len(chunk) == 0 {
			return Integrity{}, fmt.Errorf("%w: ragged leaf chunk", ErrCorrupt)
		}
		if read += uint64(len(chunk) / integrity.HashSize); read > leafCount {
			return Integrity{}, fmt.Errorf("%w: leaf chunks overrun their count", ErrCorrupt)
		}
		chunks = append(chunks, chunk)
	}
	if leafCount > 0 {
		ig.Leaves = make([]integrity.Hash, 0, leafCount)
	}
	for _, chunk := range chunks {
		for off := 0; off < len(chunk); off += integrity.HashSize {
			ig.Leaves = append(ig.Leaves, integrity.Hash(chunk[off:]))
		}
	}
	return ig, nil
}
