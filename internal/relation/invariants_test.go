package relation

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// TestHistoricalStatesImmutable drives a random operation sequence and
// verifies the defining property of transaction time (§2): "the historical
// state resulting from a transaction remains unchanged from the time of
// that transaction to the time of the next transaction" — i.e. later
// operations never change what Rollback reports for earlier times.
func TestHistoricalStatesImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	r := New(eventSchema(), tx.NewLogicalClock(0, 7))

	type snapshot struct {
		tt  chronon.Chronon
		ess []surrogate.Surrogate
	}
	var snaps []snapshot
	record := func() {
		tt := r.Clock().Now()
		var ess []surrogate.Surrogate
		for _, e := range r.Rollback(tt) {
			ess = append(ess, e.ES)
		}
		snaps = append(snaps, snapshot{tt: tt, ess: ess})
	}

	var live []*element.Element
	for i := 0; i < 400; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			e, err := r.Insert(Insertion{
				VT:        element.EventAt(chronon.Chronon(rng.Intn(10000))),
				Invariant: []element.Value{element.String_("s")},
				Varying:   []element.Value{element.Float(rng.Float64())},
			})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
		case rng.Intn(2) == 0:
			k := rng.Intn(len(live))
			if err := r.Delete(live[k].ES); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		default:
			k := rng.Intn(len(live))
			repl, err := r.Modify(live[k].ES, element.EventAt(chronon.Chronon(rng.Intn(10000))),
				[]element.Value{element.Float(rng.Float64())})
			if err != nil {
				t.Fatal(err)
			}
			live[k] = repl
		}
		if i%20 == 0 {
			record()
		}
	}
	// Every earlier snapshot must be reproducible bit-for-bit now.
	for _, s := range snaps {
		got := r.Rollback(s.tt)
		if len(got) != len(s.ess) {
			t.Fatalf("rollback(%v) now has %d elements, had %d", s.tt, len(got), len(s.ess))
		}
		for i, e := range got {
			if e.ES != s.ess[i] {
				t.Fatalf("rollback(%v)[%d] = %v, was %v", s.tt, i, e.ES, s.ess[i])
			}
		}
	}
}

// TestCurrentMatchesRollbackAtNow pins the equivalence of the current
// query with a rollback at the present transaction time.
func TestCurrentMatchesRollbackAtNow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(eventSchema(), tx.NewLogicalClock(0, 3))
	var live []*element.Element
	for i := 0; i < 300; i++ {
		if len(live) == 0 || rng.Intn(4) > 0 {
			e, err := r.Insert(Insertion{
				VT:        element.EventAt(chronon.Chronon(i)),
				Invariant: []element.Value{element.String_("s")},
				Varying:   []element.Value{element.Float(1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
		} else {
			k := rng.Intn(len(live))
			if err := r.Delete(live[k].ES); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		cur := r.Current()
		roll := r.Rollback(r.Clock().Now())
		if len(cur) != len(roll) {
			t.Fatalf("step %d: current %d vs rollback-at-now %d", i, len(cur), len(roll))
		}
		for j := range cur {
			if !sameVersion(cur[j], roll[j]) {
				t.Fatalf("step %d: element %d differs", i, j)
			}
		}
	}
}

// TestLifeLineConsistency verifies the per-surrogate partitioning: the
// union of all life-lines is exactly the version set, life-lines are
// disjoint, and each is in transaction-time order.
func TestLifeLineConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := New(eventSchema(), tx.NewLogicalClock(0, 3))
	var objects []surrogate.Surrogate
	for i := 0; i < 5; i++ {
		objects = append(objects, r.NewObject())
	}
	for i := 0; i < 200; i++ {
		if _, err := r.Insert(Insertion{
			Object:    objects[rng.Intn(len(objects))],
			VT:        element.EventAt(chronon.Chronon(i)),
			Invariant: []element.Value{element.String_("s")},
			Varying:   []element.Value{element.Float(1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	parts := r.Partitions()
	seen := make(map[surrogate.Surrogate]bool)
	total := 0
	for os, es := range parts {
		prev := chronon.MinChronon
		for _, e := range es {
			if e.OS != os {
				t.Fatalf("element %v in wrong partition %v", e, os)
			}
			if seen[e.ES] {
				t.Fatalf("element %v in two partitions", e.ES)
			}
			seen[e.ES] = true
			if e.TTStart < prev {
				t.Fatalf("life-line of %v out of tt order", os)
			}
			prev = e.TTStart
			total++
		}
	}
	if total != r.Len() {
		t.Fatalf("partitions cover %d of %d elements", total, r.Len())
	}
}

// TestBacklogReplaysToIdenticalStates replays the live backlog and checks a
// sweep of rollback states match — the backlog is the authoritative
// history.
func TestBacklogReplaysToIdenticalStates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := New(eventSchema(), tx.NewLogicalClock(0, 5))
	var live []*element.Element
	for i := 0; i < 250; i++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			e, err := r.Insert(Insertion{
				VT:        element.EventAt(chronon.Chronon(rng.Intn(5000))),
				Invariant: []element.Value{element.String_("s")},
				Varying:   []element.Value{element.Float(1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
		} else {
			k := rng.Intn(len(live))
			if err := r.Delete(live[k].ES); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	replayed, err := Replay(r.Schema(), tx.NewLogicalClock(0, 5), r.Backlog())
	if err != nil {
		t.Fatal(err)
	}
	now := r.Clock().Now()
	for tt := chronon.Chronon(0); tt <= now; tt += 13 {
		a, b := r.Rollback(tt), replayed.Rollback(tt)
		if len(a) != len(b) {
			t.Fatalf("rollback(%v): %d vs %d", tt, len(a), len(b))
		}
		for i := range a {
			if a[i].ES != b[i].ES || a[i].TTEnd != b[i].TTEnd {
				t.Fatalf("rollback(%v)[%d] differs", tt, i)
			}
		}
	}
}
