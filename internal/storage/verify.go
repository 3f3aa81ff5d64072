package storage

import "fmt"

// Chunk verification and repair. Every full chunk carries a zone map
// (seq.go) that every organization's scans prune on — the valid-time
// envelope for the valid-time reads, the transaction-time facts for rollback
// and as-of — so a wrong zone map silently drops rows from answers. It is
// derived state, recomputable from the versions, which remain the ground
// truth: VerifyRuns re-derives every full chunk's — off a sealed chunk's
// columns, materializing nothing — so damage is detected, and ResealRuns
// rebuilds a damaged one in place from the versions it covers.

// RunVerifyError describes one damaged chunk.
type RunVerifyError struct {
	Run    int // the chunk's ordinal in the store
	Reason string
}

func (e RunVerifyError) Error() string {
	return fmt.Sprintf("storage: run %d: %s", e.Run, e.Reason)
}

// VerifyRuns checks every full chunk of st: its zone map must be the one its
// elements give. It returns one error per damaged chunk.
func VerifyRuns(st Store) []RunVerifyError {
	s := seqOf(st)
	var bad []RunVerifyError
	for k := 0; s.full(k); k++ {
		c := s.chunk(k)
		if want := c.zoneOf(); c.zone != want {
			bad = append(bad, RunVerifyError{Run: k, Reason: fmt.Sprintf("zone map reads %+v, the elements give %+v", c.zone, want)})
		}
	}
	return bad
}

// ResealRuns rebuilds the zone maps of the given chunks (by ordinal) from the
// elements they cover and returns how many were rebuilt. Ordinals that name
// no full chunk are ignored. Each is rebuilt in a chunk the live store owns:
// published snapshots read theirs without a lock.
func ResealRuns(st Store, bad []int) int {
	s := seqOf(st)
	rebuilt := 0
	for _, k := range bad {
		if k < 0 || !s.full(k) {
			continue
		}
		c := s.own(k)
		c.zone = c.zoneOf()
		rebuilt++
	}
	return rebuilt
}

// CorruptZone flips one bit of the valid-time envelope of full chunk k — of
// its high bound when hi, else of its low bound — the test hook for the zone
// map's leg of the corruption matrix. It reports whether there was a full
// chunk to corrupt.
func CorruptZone(st Store, k int, hi bool, bit uint8) bool {
	return corrupt(st, k, func(z *zone) {
		if hi {
			z.vtLast ^= 1 << (bit % 63)
		} else {
			z.vtLo ^= 1 << (bit % 63)
		}
	})
}

// CorruptTT flips one bit of the transaction-time facts of full chunk k — of
// the greatest closed tt⊣ when hi, else of the least tt⊢ — the test hook for
// the run leg of the corruption matrix. It reports whether there was a full
// chunk to corrupt.
func CorruptTT(st Store, k int, hi bool, bit uint8) bool {
	return corrupt(st, k, func(z *zone) {
		if hi {
			z.ttClosed ^= 1 << (bit % 63)
		} else {
			z.ttLo ^= 1 << (bit % 63)
		}
	})
}

// corrupt applies flip to the zone map of full chunk k, in a chunk the live
// store owns.
func corrupt(st Store, k int, flip func(*zone)) bool {
	s := seqOf(st)
	if k < 0 || !s.full(k) {
		return false
	}
	flip(&s.own(k).zone)
	return true
}
