// Package integrity makes the engine's append-only transaction time
// tamper-evident and bit-rot detectable. Every WAL frame a relation
// commits becomes one leaf of a per-relation Merkle tree (the RFC 6962
// construction: domain-separated leaf/node hashes over SHA-256), the
// current root is signed per group-commit batch and persisted with the
// snapshot, and inclusion/consistency proofs let a client verify
// "this element was committed at tt=T and history was never rewritten"
// without trusting the server. The same leaf hashes ride the
// replication feed so a follower verifies shipped frames before
// applying them, and the background Scrubber re-reads sealed artifacts
// (WAL segments, snapshot shards, chunk zone maps) against their
// checksums, or their elements, on a byte-rate budget.
//
// The tree retains every leaf hash (32 bytes per committed frame): the
// engine is memory-resident by design, proofs must keep working across
// restarts and WAL truncation, and a follower needs the full leaf
// sequence to agree with the primary at any historical size.
package integrity

import (
	"crypto/sha256"
	"fmt"
	"math/bits"

	"repro/internal/wal"
)

// HashSize is the width of every tree hash.
const HashSize = sha256.Size

// Hash is one SHA-256 digest in the tree.
type Hash [HashSize]byte

// leafPrefix and nodePrefix domain-separate leaf hashes from interior
// hashes (RFC 6962 §2.1), so an interior node can never be replayed as
// a leaf (second-preimage defense).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one leaf's content: SHA256(0x00 || data). The leaf
// data for a WAL frame is the frame body exactly as framed on disk
// (LSN, kind, relation, payload), so the primary's write path, boot
// replay, and follower apply all derive identical leaves from the same
// record.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// FrameLeaf is LeafHash(wal.FrameBody(lsn, kind, rel, payload)) — the leaf
// of one committed WAL frame — hashed from the frame header and the
// payload where they lie, with no copy of the payload. The catalog's write
// path and boot replay, the replication streamer and the follower all call
// it, so they derive the same leaf from the same record.
func FrameLeaf(lsn uint64, kind wal.Kind, rel string, payload []byte) Hash {
	var head [1 + 11 + 64]byte // prefix and header; the catalog's relation names fit
	h := sha256.New()
	h.Write(wal.AppendFrameHeader(append(head[:0], leafPrefix), lsn, kind, rel))
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree roots: SHA256(0x01 || left || right).
func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of the empty tree: SHA256 of the empty string,
// per RFC 6962.
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// Tree is one relation's Merkle tree over its committed WAL frames.
// It keeps every leaf hash (proofs at historical sizes need them) plus
// an incremental stack of perfect-subtree roots so appending and
// reading the current root are O(log n). Not safe for concurrent use;
// the catalog serializes access per relation.
type Tree struct {
	leaves []Hash
	// stack holds the roots of the maximal perfect subtrees, one per
	// set bit of len(leaves), highest subtree first. The current root
	// is the right-fold of the stack, which equals the RFC 6962 MTH.
	stack []Hash
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{} }

// NewTreeFromLeaves rebuilds a tree from a persisted leaf sequence
// (the backlog's integrity block). The slice is copied.
func NewTreeFromLeaves(leaves []Hash) *Tree {
	t := &Tree{leaves: make([]Hash, 0, len(leaves))}
	for _, l := range leaves {
		t.Append(l)
	}
	return t
}

// Append adds one leaf hash.
func (t *Tree) Append(leaf Hash) {
	// Merge trailing perfect subtrees exactly like a binary increment:
	// k trailing one-bits of the old size mean k merges.
	k := bits.TrailingZeros64(^uint64(len(t.leaves)))
	h := leaf
	for j := 0; j < k; j++ {
		h = nodeHash(t.stack[len(t.stack)-1], h)
		t.stack = t.stack[:len(t.stack)-1]
	}
	t.stack = append(t.stack, h)
	t.leaves = append(t.leaves, leaf)
}

// Size reports the number of leaves.
func (t *Tree) Size() uint64 { return uint64(len(t.leaves)) }

// Leaves returns a copy of the leaf sequence, for persistence.
func (t *Tree) Leaves() []Hash {
	out := make([]Hash, len(t.leaves))
	copy(out, t.leaves)
	return out
}

// Leaf returns leaf i.
func (t *Tree) Leaf(i uint64) (Hash, error) {
	if i >= t.Size() {
		return Hash{}, fmt.Errorf("integrity: leaf %d out of range (size %d)", i, t.Size())
	}
	return t.leaves[i], nil
}

// Root returns the current tree root in O(log n) from the incremental
// stack. The empty tree's root is EmptyRoot.
func (t *Tree) Root() Hash {
	if len(t.stack) == 0 {
		return EmptyRoot()
	}
	r := t.stack[len(t.stack)-1]
	for i := len(t.stack) - 2; i >= 0; i-- {
		r = nodeHash(t.stack[i], r)
	}
	return r
}

// RootAt returns the root the tree had when it held n leaves.
func (t *Tree) RootAt(n uint64) (Hash, error) {
	if n > t.Size() {
		return Hash{}, fmt.Errorf("integrity: root at %d beyond size %d", n, t.Size())
	}
	return mth(t.leaves[:n]), nil
}

// mth is the RFC 6962 Merkle tree head over a leaf range.
func mth(l []Hash) Hash {
	switch len(l) {
	case 0:
		return EmptyRoot()
	case 1:
		return l[0]
	}
	k := splitPoint(len(l))
	return nodeHash(mth(l[:k]), mth(l[k:]))
}

// splitPoint returns the largest power of two strictly less than n
// (n >= 2), the RFC 6962 split.
func splitPoint(n int) int {
	return 1 << (bits.Len(uint(n-1)) - 1)
}

// InclusionProof returns the audit path for leaf i in the tree of the
// first n leaves (RFC 6962 PATH), sibling-first.
func (t *Tree) InclusionProof(i, n uint64) ([]Hash, error) {
	if n > t.Size() {
		return nil, fmt.Errorf("integrity: proof at size %d beyond %d", n, t.Size())
	}
	if i >= n {
		return nil, fmt.Errorf("integrity: leaf %d out of range (size %d)", i, n)
	}
	return path(i, t.leaves[:n]), nil
}

func path(m uint64, l []Hash) []Hash {
	if len(l) <= 1 {
		return nil
	}
	k := uint64(splitPoint(len(l)))
	if m < k {
		return append(path(m, l[:k]), mth(l[k:]))
	}
	return append(path(m-k, l[k:]), mth(l[:k]))
}

// ConsistencyProof proves the tree of the first m leaves is a prefix
// of the tree of the first n leaves (RFC 6962 PROOF). m == 0 and
// m == n yield an empty proof (trivially consistent).
func (t *Tree) ConsistencyProof(m, n uint64) ([]Hash, error) {
	if n > t.Size() {
		return nil, fmt.Errorf("integrity: consistency at size %d beyond %d", n, t.Size())
	}
	if m > n {
		return nil, fmt.Errorf("integrity: consistency %d -> %d runs backward", m, n)
	}
	if m == 0 || m == n {
		return nil, nil
	}
	return subproof(m, t.leaves[:n], true), nil
}

func subproof(m uint64, l []Hash, b bool) []Hash {
	if m == uint64(len(l)) {
		if b {
			return nil
		}
		return []Hash{mth(l)}
	}
	k := uint64(splitPoint(len(l)))
	if m <= k {
		return append(subproof(m, l[:k], b), mth(l[k:]))
	}
	return append(subproof(m-k, l[k:], false), mth(l[:k]))
}

// VerifyInclusion checks an audit path: does leaf (already hashed) sit
// at index i of the size-n tree with the given root? Pure function —
// the client runs this locally against a signed root. The algorithm is
// the RFC 9162 iterative verification.
func VerifyInclusion(leaf Hash, i, n uint64, proof []Hash, root Hash) bool {
	if i >= n {
		return false
	}
	fn, sn := i, n-1
	r := leaf
	for _, p := range proof {
		if sn == 0 {
			return false // path longer than the tree is tall
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn&1 == 0 {
				// Right edge of the tree: skip the levels where this
				// subtree has no right sibling.
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// VerifyConsistency checks a consistency proof: is the size-m tree
// with root oldRoot a prefix of the size-n tree with root newRoot?
// Pure function (RFC 9162 iterative verification). An empty old tree
// is consistent with anything; equal sizes require equal roots.
func VerifyConsistency(m, n uint64, oldRoot, newRoot Hash, proof []Hash) bool {
	if m > n {
		return false
	}
	if m == 0 {
		return len(proof) == 0
	}
	if m == n {
		return len(proof) == 0 && oldRoot == newRoot
	}
	// If m is a power of two, the old root is itself the first
	// component of the reconstruction.
	need := proof
	if m&(m-1) == 0 {
		need = append([]Hash{oldRoot}, proof...)
	}
	if len(need) == 0 {
		return false
	}
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := need[0], need[0]
	for _, c := range need[1:] {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}
