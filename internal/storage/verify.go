package storage

import (
	"fmt"
	"hash/crc32"

	"repro/internal/chronon"
)

// Chunk verification and repair. Two pieces of derived state decide what a
// store answers or reports, and both are recomputable from the elements,
// which remain the ground truth. Every full chunk carries a zone map (seq.go)
// that every organization's scans prune on: a wrong envelope silently drops
// rows from answers. A sealed run's packed image is checksummed at seal time:
// bit rot in it would mis-size StoreBytes and feed the columnar engine wrong
// timestamps. VerifyRuns re-derives both, so damage is detected, and
// ResealRuns rebuilds a damaged chunk in place from the elements it covers.

// RunVerifyError describes one damaged chunk.
type RunVerifyError struct {
	Run    int // the chunk's ordinal in the store
	Reason string
}

func (e RunVerifyError) Error() string {
	return fmt.Sprintf("storage: run %d: %s", e.Run, e.Reason)
}

// VerifyRuns checks every full chunk of st: its zone map must be the one its
// elements give, and once sealed its packed image must match its seal-time
// CRC, decode cleanly, and agree element-for-element with the timestamps of
// the elements it covers. It returns one error per damaged chunk. RunBytes
// the scrubber charges come from StoreBytes.
func VerifyRuns(st Store) []RunVerifyError {
	s := seqOf(st)
	var bad []RunVerifyError
	for k := 0; s.full(k); k++ {
		c := s.chunk(k)
		reason := verifyZone(c)
		if reason == "" && k < s.sealed {
			reason = verifyRun(c)
		}
		if reason != "" {
			bad = append(bad, RunVerifyError{Run: k, Reason: reason})
		}
	}
	return bad
}

func verifyZone(c *chunk) string {
	if want := zoneOf(c.elems[:], c.closes); c.zone != want {
		return fmt.Sprintf("zone map reads %+v, the elements give %+v", c.zone, want)
	}
	return ""
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

// ResealRuns rebuilds the given chunks (by ordinal) from the elements they
// cover — the elements are the ground truth, the zone map and the packed
// image are derived — and returns how many were rebuilt. Ordinals that name
// no full chunk are ignored. Each is rebuilt in a chunk the live store owns:
// published snapshots read theirs without a lock. A resealed run counts its
// closes afresh, so whoever memoizes per-run state against (ordinal, close
// count) must treat the store as a new one.
func ResealRuns(st Store, bad []int) int {
	s := seqOf(st)
	rebuilt := 0
	for _, k := range bad {
		if k < 0 || !s.full(k) {
			continue
		}
		c := s.own(k)
		c.zone = zoneOf(c.elems[:], c.closes)
		if k < s.sealed {
			s.packedBytes -= int64(len(c.run.packed))
			c.run = sealRun(c.elems[:])
			s.packedBytes += int64(len(c.run.packed))
		}
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

// CorruptZone flips one bit of the valid-time envelope of full chunk k — of
// its high bound when hi, else of its low bound — the test hook for the zone
// map's leg of the corruption matrix. It reports whether there was a full
// chunk to corrupt.
func CorruptZone(st Store, k int, hi bool, bit uint8) bool {
	s := seqOf(st)
	if k < 0 || !s.full(k) {
		return false
	}
	c := s.own(k)
	if hi {
		c.vtLast ^= 1 << (bit % 63)
	} else {
		c.vtLo ^= 1 << (bit % 63)
	}
	return true
}
