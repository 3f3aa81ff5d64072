package storage

import (
	"fmt"
	"hash/crc32"

	"repro/internal/chronon"
)

// Sealed-run verification and repair. A sealed run's packed image is
// checksummed at seal time; VerifyRuns re-checks every run against its
// recorded CRC and against a fresh decode, so bit rot in the packed
// columns is detected instead of silently mis-sizing StoreBytes or (in
// a future disk-resident layout) mis-answering queries. Because the
// elements themselves remain the ground truth, a damaged run is
// repairable in place: ResealRuns rebuilds it from the elements it
// covers.

// RunVerifyError describes one damaged sealed run.
type RunVerifyError struct {
	Run    int // index into the store's sealed-run sequence
	Reason string
}

func (e RunVerifyError) Error() string {
	return fmt.Sprintf("storage: sealed run %d: %s", e.Run, e.Reason)
}

// VerifyRuns checks every sealed run of st: the packed image must match
// its seal-time CRC, decode cleanly, and agree element-for-element with
// the timestamps of the elements it covers. It returns one error per
// damaged run (empty for stores that do not seal). RunBytes the scrubber
// charges come from Compaction.
func VerifyRuns(st Store) []RunVerifyError {
	s := seqOf(st)
	var bad []RunVerifyError
	for i := range s.sealed {
		if reason := verifyRun(s.chunk(i)); reason != "" {
			bad = append(bad, RunVerifyError{Run: i, Reason: reason})
		}
	}
	return bad
}

func verifyRun(c *chunk) string {
	r := &c.run
	if crc32.Checksum(r.packed, runCastagnoli) != r.sum {
		return "packed image fails its checksum"
	}
	cols, err := unpackColumns(r.packed, runSize)
	if err != nil {
		return fmt.Sprintf("packed image undecodable: %v", err)
	}
	for j, e := range c.elems {
		got := cols[j]
		if r.closed > 0 && got[1] == int64(chronon.Forever) {
			// Sealed open, closed since: the one staleness the image is
			// allowed (compact.go), not damage.
			got[1] = int64(e.TTEnd)
		}
		if got[0] != int64(e.TTStart) || got[1] != int64(e.TTEnd) ||
			got[2] != int64(e.VT.Start()) || got[3] != int64(e.VT.End()) {
			return fmt.Sprintf("row %d decodes to different timestamps", j)
		}
	}
	return ""
}

// ResealRuns rebuilds the given runs (by index) from the elements they
// cover — the elements are the ground truth, the packed image is a
// derived representation — and returns how many were rebuilt. Indexes
// out of range are ignored. Each run is rebuilt in a chunk the live store
// owns: published snapshots read theirs without a lock. A resealed run
// counts its open elements and closes afresh, so whoever memoizes per-run
// state against (ordinal, close count) must treat the store as a new one.
func ResealRuns(st Store, bad []int) int {
	s := seqOf(st)
	rebuilt := 0
	for _, i := range bad {
		if i < 0 || i >= s.sealed {
			continue
		}
		c := s.own(i)
		s.packedBytes -= int64(len(c.run.packed))
		c.run = sealRun(c.elems[:])
		s.packedBytes += int64(len(c.run.packed))
		rebuilt++
	}
	return rebuilt
}

// CorruptRun flips one bit inside the packed image of run i — a test
// hook for the corruption matrix and repair drills (the packed image is
// unexported, so tests cannot reach it directly). It reports whether a
// sealed run existed to corrupt.
func CorruptRun(st Store, i int, byteOff int, bit uint8) bool {
	s := seqOf(st)
	if i < 0 || i >= s.sealed {
		return false
	}
	// Copy-on-write twice over: the chunk may be a snapshot's, and the
	// copied chunk still shares the image's bytes with it.
	c := s.own(i)
	p := append([]byte(nil), c.run.packed...)
	p[byteOff%len(p)] ^= 1 << (bit % 8)
	c.run.packed = p
	return true
}
