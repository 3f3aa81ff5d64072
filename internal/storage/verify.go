package storage

import (
	"fmt"
	"hash/crc32"

	"repro/internal/chronon"
	"repro/internal/element"
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

// storeRuns exposes the sealed-run slice of the organizations that seal.
func storeRuns(st Store) *[]runMeta {
	switch s := st.(type) {
	case *TTLogStore:
		return &s.runs
	case *VTLogStore:
		return &s.runs
	}
	return nil
}

// VerifyRuns checks every sealed run of st: the packed image must match
// its seal-time CRC, decode cleanly, and agree element-for-element with
// the timestamps of the elements it covers. It returns one error per
// damaged run (empty for stores that do not seal). RunBytes the scrubber
// charges come from SealedBytes.
func VerifyRuns(st Store) []RunVerifyError {
	runsp := storeRuns(st)
	if runsp == nil {
		return nil
	}
	elems := Elements(st)
	var bad []RunVerifyError
	for i, r := range *runsp {
		if reason := verifyRun(r, elems); reason != "" {
			bad = append(bad, RunVerifyError{Run: i, Reason: reason})
		}
	}
	return bad
}

func verifyRun(r runMeta, elems []*element.Element) string {
	if crc32.Checksum(r.packed, runCastagnoli) != r.sum {
		return "packed image fails its checksum"
	}
	if r.start+r.n > len(elems) {
		return fmt.Sprintf("covers [%d,%d) beyond %d elements", r.start, r.start+r.n, len(elems))
	}
	cols, err := unpackColumns(r.packed, r.n)
	if err != nil {
		return fmt.Sprintf("packed image undecodable: %v", err)
	}
	for j, e := range elems[r.start : r.start+r.n] {
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
// out of range are ignored. The run slice is copied first: published
// snapshots share it and read it without a lock. A resealed run counts
// its open elements and closes afresh, so whoever memoizes per-run state
// against (ordinal, close count) must treat the store as a new one.
func ResealRuns(st Store, bad []int) int {
	runsp := storeRuns(st)
	if runsp == nil || len(bad) == 0 {
		return 0
	}
	*runsp = append([]runMeta(nil), *runsp...)
	elems := Elements(st)
	rebuilt := 0
	for _, i := range bad {
		if i < 0 || i >= len(*runsp) {
			continue
		}
		r := (*runsp)[i]
		if r.start+r.n > len(elems) {
			continue
		}
		(*runsp)[i] = sealRun(elems, r.start, r.n)
		rebuilt++
	}
	return rebuilt
}

// SealedBytes reports the packed-image byte size of st's sealed runs,
// the cost basis the scrubber's rate limiter charges for verifying them.
func SealedBytes(st Store) int64 {
	runsp := storeRuns(st)
	if runsp == nil {
		return 0
	}
	var n int64
	for _, r := range *runsp {
		n += int64(len(r.packed))
	}
	return n
}

// CorruptRun flips one bit inside the packed image of run i — a test
// hook for the corruption matrix and repair drills (the packed image is
// unexported, so tests cannot reach it directly). It reports whether a
// sealed run existed to corrupt.
func CorruptRun(st Store, i int, byteOff int, bit uint8) bool {
	runsp := storeRuns(st)
	if runsp == nil || i < 0 || i >= len(*runsp) {
		return false
	}
	r := (*runsp)[i]
	if len(r.packed) == 0 {
		return false
	}
	// Copy-on-write: snapshots may share the slice with the live store.
	p := append([]byte(nil), r.packed...)
	p[byteOff%len(p)] ^= 1 << (bit % 8)
	(*runsp)[i].packed = p
	return true
}
