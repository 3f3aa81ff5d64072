package storage

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

func sealedTTLog(t *testing.T, n int) *RunStore {
	t.Helper()
	st := NewTTLog()
	for i := 0; i < n; i++ {
		tt := chronon.Chronon(10 * (i + 1))
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(tt)}
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if sealed := st.Compact(); sealed == 0 {
		t.Fatal("nothing sealed")
	}
	return st
}

// TestVerifyRunsCorruptionMatrix is the run leg of the corruption matrix:
// flipping any bit of either transaction-time fact of any full chunk — the
// least tt⊢ or the greatest closed tt⊣ — is detected on that chunk alone and
// repaired from its elements, and pristine chunks pass. Chunk 1 is closed
// whole and chunk 0 in part, so both facts carry a stamp.
func TestVerifyRunsCorruptionMatrix(t *testing.T) {
	st := sealedTTLog(t, 3*runSize+17)
	for _, i := range []int{3, 100} {
		closeAt(st, i, chronon.Chronon(50_000+i))
	}
	for i := runSize; i < 2*runSize; i++ {
		closeAt(st, i, 60_000)
	}
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("false positive on clean store: %v", bad)
	}
	snap := st.Snapshot()
	for k := 0; k < 3; k++ {
		for _, hi := range []bool{false, true} {
			for bit := uint8(0); bit < 63; bit++ {
				if !CorruptTT(st, k, hi, bit) {
					t.Fatalf("corrupt chunk %d failed", k)
				}
				if bad := VerifyRuns(st); len(bad) != 1 || bad[0].Run != k {
					t.Fatalf("chunk %d, high %v, bit %d: detected %v", k, hi, bit, bad)
				}
				if n := ResealRuns(st, []int{k}); n != 1 {
					t.Fatalf("reseal repaired %d chunks", n)
				}
				if bad := VerifyRuns(st); len(bad) != 0 {
					t.Fatalf("chunk %d, high %v, bit %d: damage survived reseal: %v", k, hi, bit, bad)
				}
			}
		}
	}
	if bad := VerifyRuns(snap); len(bad) != 0 {
		t.Fatalf("the flips reached a snapshot taken before them: %v", bad)
	}
	if CorruptTT(st, 3, false, 0) {
		t.Fatal("CorruptTT took the tail for a full chunk")
	}
}

// TestVerifyRunsPostRepairAnswers proves the damage decides answers — a
// least tt⊢ flipped far into the future makes the as-of read skip chunk 1 —
// and that the repaired store answers exactly like an undamaged twin
// (history equals the acked prefix).
func TestVerifyRunsPostRepairAnswers(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	twin := sealedTTLog(t, 2*runSize)
	vt, tt := chronon.Chronon(10*(runSize+5)), chronon.Chronon(10*2*runSize)
	asOf := func(s Store) []*element.Element {
		got, _, err := AsOf(context.Background(), s, vt, vt, tt)
		if err != nil {
			t.Fatal(err)
		}
		return got.Elements()
	}
	CorruptTT(st, 1, false, 40)
	if len(asOf(st)) != 0 || len(asOf(twin)) != 1 {
		t.Fatalf("as of: the damaged store answers %d, its twin %d; the test means the damage to decide the answer", len(asOf(st)), len(asOf(twin)))
	}
	bad := VerifyRuns(st)
	if len(bad) != 1 {
		t.Fatalf("bad = %v", bad)
	}
	ResealRuns(st, []int{bad[0].Run})
	if got := VerifyRuns(st); len(got) != 0 {
		t.Fatalf("still damaged: %v", got)
	}
	gotTS, _ := st.Timeslice(chronon.Chronon(10 * runSize))
	wantTS, _ := twin.Timeslice(chronon.Chronon(10 * runSize))
	if !sameIDs(elemIDs(gotTS), elemIDs(wantTS)) {
		t.Fatal("timeslice diverged after repair")
	}
	gotRB, _ := st.Rollback(tt)
	wantRB, _ := twin.Rollback(tt)
	if !sameIDs(elemIDs(gotRB), elemIDs(wantRB)) {
		t.Fatal("rollback diverged after repair")
	}
	if !sameIDs(elemIDs(asOf(st)), elemIDs(asOf(twin))) {
		t.Fatal("as of diverged after repair")
	}
}

// TestVerifyRunsZoneMapCorruption is the zone map's leg of the corruption
// matrix, on a heap and a tt-ordered log that never seal and on a sealed log:
// a flipped bit in either bound of a full chunk's valid-time envelope makes
// the scans drop that chunk's rows — the damage decides answers, it does not
// merely mis-report — VerifyRuns names exactly that chunk, ResealRuns rewrites
// the envelope from the elements, and every scan equals the brute-force
// filter again. A snapshot taken before the flip never saw it.
func TestVerifyRunsZoneMapCorruption(t *testing.T) {
	stores := map[string]func() *RunStore{
		"heap":          NewHeap,
		"tt-log":        NewTTLog,
		"sealed-tt-log": func() *RunStore { return sealedTTLog(t, 3*runSize) },
	}
	for name, build := range stores {
		t.Run(name, func(t *testing.T) {
			st := build()
			for i := st.Len(); i < 3*runSize+9; i++ {
				tt := chronon.Chronon(10 * (i + 1))
				if err := st.Insert(&element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(tt)}); err != nil {
					t.Fatal(err)
				}
			}
			flat := Elements(st)
			answers := func(s *RunStore) error { return checkZoneMaps(s, flat, rand.New(rand.NewSource(7)), newSpanNames()) }
			if bad := VerifyRuns(st); len(bad) != 0 || answers(st) != nil {
				t.Fatalf("clean store: %v, %v", bad, answers(st))
			}
			snap := st.Snapshot().(*RunStore)
			vt := st.At(runSize + 40).VT.Start()
			for _, hi := range []bool{false, true} {
				// Chunk 1 holds vt 2570 … 5120: setting bit 40 moves the low
				// bound far above all of it, clearing bit 12 of the high bound
				// (5120, inclusive) far below.
				bit := uint8(40)
				if hi {
					bit = 12
				}
				if CorruptZone(st, 3, hi, bit) || !CorruptZone(st, 1, hi, bit) {
					t.Fatal("CorruptZone took the tail for a full chunk, or refused a full one")
				}
				if got, _ := st.Timeslice(vt); len(got) != 0 {
					t.Fatalf("high bound %v: the damaged envelope still admits vt %v; the test means it to decide the answer", hi, vt)
				}
				if answers(snap) != nil || len(VerifyRuns(snap)) != 0 {
					t.Fatal("the flip reached a snapshot taken before it")
				}
				bad := VerifyRuns(st)
				if len(bad) != 1 || bad[0].Run != 1 {
					t.Fatalf("high bound %v: detected %v, want run 1 alone", hi, bad)
				}
				if ResealRuns(st, []int{1}) != 1 || len(VerifyRuns(st)) != 0 {
					t.Fatalf("high bound %v: damage survived the repair: %v", hi, VerifyRuns(st))
				}
				if err := answers(st); err != nil {
					t.Fatalf("high bound %v, after the repair: %v", hi, err)
				}
			}
		})
	}
}

func TestVerifyRunsNonSealingStores(t *testing.T) {
	st := NewHeap()
	if VerifyRuns(st) != nil || ResealRuns(st, []int{0}) != 0 || Compaction(st).PackedBytes != 0 {
		t.Fatal("heap store reported sealed-run state")
	}
	if CorruptTT(st, 0, false, 0) || CorruptZone(st, 0, false, 0) {
		t.Fatal("corrupted a chunk of an empty store")
	}
}

// TestResealRunsLeavesSnapshotsAlone: a published snapshot shares run 0's
// chunk and reads it without a lock, so a repair must not write into it; and
// the chunk's lifetime counts — what liveness and the partial memo read —
// stay.
func TestResealRunsLeavesSnapshotsAlone(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	closeAt(st, 7, 9_999_999)
	snap := st.Snapshot().(*RunStore)
	check := func(what string, c *chunk) {
		t.Helper()
		if c.closes != 1 || c.opened != runSize || c.ttClosed != 9_999_999 {
			t.Fatalf("%s: %d closes, %d opened, greatest closed tt⊣ %v; want 1, %d, 9999999", what, c.closes, c.opened, c.ttClosed, runSize)
		}
	}
	check("snapshot run 0", snap.chunk(0))
	shared := snap.chunk(0)
	if ResealRuns(st, []int{0}) != 1 {
		t.Fatal("nothing resealed")
	}
	if st.chunk(0) == shared || snap.chunk(0) != shared {
		t.Fatal("the reseal wrote into the chunk a snapshot reads")
	}
	check("snapshot run 0 after the reseal", snap.chunk(0))
	check("resealed run 0", st.chunk(0))
}

// TestVerifyRunsToleratesClosesSinceSealing: a delete inside a sealed run
// goes through Replace, which books it in the chunk's zone map, so the
// scrubber must not read it as corruption; a changed tt⊣ the zone map does
// not account for is still damage.
func TestVerifyRunsToleratesClosesSinceSealing(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	closeAt(st, 7, 9_999_999)
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("a close since sealing reported as damage: %v", bad)
	}
	st.ownSlots(1).ttEnd[1] = 9_999_999 // not through Replace: run 1 books no close
	if bad := VerifyRuns(st); len(bad) != 1 || bad[0].Run != 1 {
		t.Fatalf("unaccounted tt⊣ change: %v", bad)
	}
}
