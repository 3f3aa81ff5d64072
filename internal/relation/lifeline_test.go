package relation

import (
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// TestCloseOnALongLifeLine is the paper's one-sensor monitoring relation:
// a single object with 200 k versions. Closing a version must find it in the
// life-line by its tt⊢, not by walking the line, and every structure that
// held the open version must hold the closed clone afterwards. The lookup is
// held to that twice: the ordered search finds every version of the line, so
// none falls to the scan; and the closes at the far end of the line are timed
// against those at its head with a margin no scheduler hiccup fills — equal
// within milliseconds when found by tt⊢, over a second against tens of
// milliseconds when the line is walked.
func TestCloseOnALongLifeLine(t *testing.T) {
	const n, batch = 200_000, 20_000
	r := newEventRelation()
	first := insertReading(t, r, 0, "s1", 0)
	ess := []surrogate.Surrogate{first.ES}
	for i := 1; i < n; i++ {
		e, err := r.Insert(Insertion{Object: first.OS, VT: element.EventAt(chronon.Chronon(i)),
			Invariant: []element.Value{element.String_("s1")}, Varying: []element.Value{element.Float(float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		ess = append(ess, e.ES)
	}
	closeAll := func(ess []surrogate.Surrogate) time.Duration {
		start := time.Now()
		for _, es := range ess {
			if err := r.Delete(es); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		return time.Since(start)
	}
	tail := closeAll(ess[n-batch:])
	head := closeAll(ess[:batch])
	t.Logf("%d closes at the tail of the life-line %v, at its head %v", batch, tail, head)
	if tail > 4*head+300*time.Millisecond {
		t.Errorf("closes at the tail of a %d-version life-line took %v against %v at its head: the lookup walks the line", n, tail, head)
	}
	line, versions := r.History(first.OS), r.Versions()
	for i, e := range line {
		if !swapByTT(line, e, e) || !swapByTT(versions, e, e) {
			t.Fatalf("version %d of %d (tt⊢ %v) is not found by its tt⊢: the close walked the line for it", i, n, e.TTStart)
		}
	}
	for i, es := range ess {
		closed := i < batch || i >= n-batch
		live, _ := r.ByES(es)
		if line[i] != live || versions[i] != live || live.Current() == closed {
			t.Fatalf("version %d: life-line %p, versions %p, byES %p (current %v, want closed %v)",
				i, line[i], versions[i], live, live.Current(), closed)
		}
	}
}
