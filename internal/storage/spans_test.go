package storage

import (
	"math/rand"
	"testing"
)

// TestSlotStretches: walking a slot set word by word gives the stretches of
// adjacent slots a walk slot by slot finds — across word boundaries, at the
// set's two ends, for empty, full, sparse and random sets.
func TestSlotStretches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := []Slots{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, {1 << 63, 1, 0, 1 << 63},
		{0x5555555555555555, 0x5555555555555555, 0x5555555555555555, 0x5555555555555555}, {0, ^uint64(0), ^uint64(0), 0}}
	for i := 0; i < 2000; i++ {
		var s Slots
		density := rng.Intn(100)
		for j := 0; j < runSize; j++ {
			if rng.Intn(100) < density {
				s.add(j)
			}
		}
		sets = append(sets, s)
	}
	for _, s := range sets {
		type stretch struct{ a, b int }
		var want, got []stretch
		for j := 0; j < runSize; j++ {
			if s.Next(j) != j {
				continue
			}
			if n := len(want); n > 0 && want[n-1].b == j {
				want[n-1].b++
			} else {
				want = append(want, stretch{j, j + 1})
			}
		}
		it := s.Stretches()
		for a, b := it.Next(); a < ChunkSize; a, b = it.Next() {
			got = append(got, stretch{a, b})
		}
		if a, b := it.Next(); a != ChunkSize || b != ChunkSize {
			t.Fatalf("%x: a walked set goes on with [%d, %d)", s, a, b)
		}
		if len(got) != len(want) {
			t.Fatalf("%x: %d stretches, want %d: %v", s, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%x: stretch %d is %v, want %v", s, i, got[i], want[i])
			}
		}
	}
}
