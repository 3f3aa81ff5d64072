package storage

import (
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

// TestVerifyRunsCorruptionMatrix is the frozen-run leg of the corruption
// matrix: flipping one bit of every byte of every sealed run's packed
// image must be detected, and pristine runs must pass.
func TestVerifyRunsCorruptionMatrix(t *testing.T) {
	st := sealedTTLog(t, 3*runSize+17)
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("false positive on clean store: %v", bad)
	}
	nruns := Compaction(st).Runs
	if nruns != 3 {
		t.Fatalf("runs = %d", nruns)
	}
	for ri := 0; ri < nruns; ri++ {
		size := int(Compaction(st).PackedBytes) / nruns
		for off := 0; off < size; off++ {
			if !CorruptRun(st, ri, off, uint8(off%8)) {
				t.Fatalf("corrupt run %d failed", ri)
			}
			bad := VerifyRuns(st)
			if len(bad) != 1 || bad[0].Run != ri {
				t.Fatalf("run %d byte %d: flips detected = %v", ri, off, bad)
			}
			// Repair rebuilds from the elements and the store passes again.
			if n := ResealRuns(st, []int{ri}); n != 1 {
				t.Fatalf("reseal repaired %d runs", n)
			}
			if bad := VerifyRuns(st); len(bad) != 0 {
				t.Fatalf("run %d byte %d: damage survived reseal: %v", ri, off, bad)
			}
		}
	}
}

// TestVerifyRunsPostRepairAnswers proves the repaired store answers
// exactly like an undamaged twin (history equals the acked prefix).
func TestVerifyRunsPostRepairAnswers(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	twin := sealedTTLog(t, 2*runSize)
	CorruptRun(st, 1, 7, 3)
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
	gotRB, _ := st.Rollback(chronon.Chronon(10 * runSize))
	wantRB, _ := twin.Rollback(chronon.Chronon(10 * runSize))
	if !sameIDs(elemIDs(gotRB), elemIDs(wantRB)) {
		t.Fatal("rollback diverged after repair")
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
			vt := st.at(runSize + 40).VT.Start()
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
	if CorruptRun(st, 0, 0, 0) {
		t.Fatal("corrupted a run on a non-sealing store")
	}
}

// TestResealRunsLeavesSnapshotsAlone: a published snapshot shares run 0's
// chunk and reads it without a lock, so a repair must not write into it;
// and the resealed run counts its closes afresh, while the chunk's lifetime
// counts — what liveness and the partial memo read — stay.
func TestResealRunsLeavesSnapshotsAlone(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	orig := st.at(7)
	closed := *orig
	closed.TTEnd = 9_999_999
	st.Replace(orig, &closed)
	snap := st.Snapshot().(*RunStore)
	check := func(what string, c *chunk, sinceSeal int) {
		t.Helper()
		if c.run.closed != sinceSeal || c.closes != 1 || c.opened != runSize {
			t.Fatalf("%s: %d closes since sealing, %d ever, %d opened; want %d, 1, %d", what, c.run.closed, c.closes, c.opened, sinceSeal, runSize)
		}
	}
	check("snapshot run 0", snap.chunk(0), 1)
	if ResealRuns(st, []int{0}) != 1 {
		t.Fatal("nothing resealed")
	}
	check("snapshot run 0 after the reseal", snap.chunk(0), 1)
	check("resealed run 0", st.chunk(0), 0)
}

// TestVerifyRunsToleratesClosesSinceSealing: a delete inside a sealed run
// leaves the packed tt⊣ at Forever by design; the scrubber must not read
// that as corruption (it used to, quarantining and resealing the run), yet
// a changed tt⊣ the close count does not account for is still damage.
func TestVerifyRunsToleratesClosesSinceSealing(t *testing.T) {
	st := sealedTTLog(t, 2*runSize)
	orig := st.at(7)
	closed := *orig
	closed.TTEnd = 9_999_999
	st.Replace(orig, &closed)
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("a close since sealing reported as damage: %v", bad)
	}
	behind := *st.at(runSize + 1)
	behind.TTEnd = 9_999_999
	st.chunk(1).elems[1] = &behind // not through Replace: run 1 counts no close
	if bad := VerifyRuns(st); len(bad) != 1 || bad[0].Run != 1 {
		t.Fatalf("unaccounted tt⊣ change: %v", bad)
	}
}
