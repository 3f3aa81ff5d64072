package storage

// Snapshot semantics: a snapshot is an O(1) freeze of the store's current
// extension. Live inserts after the freeze never appear in it, a live
// Replace (copy-on-close of a deleted element) copies the shared backing
// instead of mutating what the snapshot sees, and the snapshot itself
// refuses mutation.

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
)

func allStores() map[string]Store {
	return map[string]Store{
		"heap":    NewHeap(),
		"tt-log":  NewTTLog(),
		"vt-log":  NewVTLog(),
		"indexed": NewIndexedEvent(),
	}
}

func scanAll(s Store) []*element.Element {
	var out []*element.Element
	s.Scan(func(e *element.Element) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestSnapshotExcludesLaterInserts(t *testing.T) {
	for name, s := range allStores() {
		fill(t, s, ev(10, 1), ev(20, 2))
		snap := s.Snapshot()
		fill(t, s, ev(30, 3))
		if snap.Len() != 2 {
			t.Errorf("%s: snapshot Len = %d after live insert, want 2", name, snap.Len())
		}
		if s.Len() != 3 {
			t.Errorf("%s: live Len = %d, want 3", name, s.Len())
		}
	}
}

func TestSnapshotUnaffectedByLiveReplace(t *testing.T) {
	for name, s := range allStores() {
		open := ev(10, 1)
		fill(t, s, open, ev(20, 2))
		snap := s.Snapshot()

		// Copy-on-close: the live store swaps in the closed clone; the
		// snapshot must keep serving the open original.
		closed := open.Clone()
		closed.TTEnd = chronon.Chronon(30)
		s.Replace(open, closed)

		for _, e := range scanAll(snap) {
			if e == closed {
				t.Errorf("%s: snapshot sees the live replacement", name)
			}
		}
		found := false
		for _, e := range scanAll(s) {
			if e == closed {
				found = true
			}
			if e == open {
				t.Errorf("%s: live store still holds the replaced element", name)
			}
		}
		if !found {
			t.Errorf("%s: live store lost the replacement", name)
		}
	}
}

func TestSnapshotRefusesMutation(t *testing.T) {
	for name, s := range allStores() {
		fill(t, s, ev(10, 1))
		snap := s.Snapshot()
		if err := snap.Insert(ev(20, 2)); err == nil {
			t.Errorf("%s: Insert into frozen snapshot succeeded", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Replace on frozen snapshot did not panic", name)
				}
			}()
			snap.Replace(ev(10, 1), ev(10, 1))
		}()
	}
}

func TestSnapshotAnswersQueriesLikeTheLiveStore(t *testing.T) {
	for name, s := range allStores() {
		fill(t, s, ev(10, 1), ev(20, 2), ev(30, 3))
		snap := s.Snapshot()
		live, _ := s.VTRange(0, 10)
		frozen, _ := snap.VTRange(0, 10)
		if !sameElems(live, frozen) {
			t.Errorf("%s: snapshot VTRange %v != live %v", name, ids(frozen), ids(live))
		}
		lr, _ := s.Rollback(25)
		fr, _ := snap.Rollback(25)
		if !sameElems(lr, fr) {
			t.Errorf("%s: snapshot Rollback %v != live %v", name, ids(fr), ids(lr))
		}
	}
}

func TestElementsReturnsBacking(t *testing.T) {
	for name, s := range allStores() {
		fill(t, s, ev(10, 1), ev(20, 2))
		els := Elements(s)
		if len(els) != 2 {
			t.Errorf("%s: Elements returned %d, want 2", name, len(els))
		}
	}
}

// TestReplaceFindsByPointerNotPosition: Replace locates old by binary
// search on tt⊢, so it must pick the right element out of a run sharing one
// TTStart (a batch commits under one transaction time), and must still find
// it in a heap whose tt order broke — the one store that admits that.
func TestReplaceFindsByPointerNotPosition(t *testing.T) {
	swap := func(name string, s Store, old *element.Element, all []*element.Element) {
		closed := old.Clone()
		closed.TTEnd = chronon.Chronon(99)
		s.Replace(old, closed)
		got := scanAll(s)
		for i, e := range all {
			want := e
			if e == old {
				want = closed
			}
			if !sameVersion(got[i], want) {
				t.Errorf("%s: slot %d holds %v, want %v", name, i, got[i].ES, want.ES)
			}
		}
	}
	for name, s := range allStores() {
		run := []*element.Element{ev(10, 1), ev(20, 2), ev(20, 3), ev(20, 4), ev(30, 5)}
		fill(t, s, run...)
		swap(name, s, run[3], run)
	}
	heap := NewHeap()
	broken := []*element.Element{ev(30, 1), ev(10, 2), ev(20, 3)}
	fill(t, heap, broken...)
	swap("heap out of tt order", heap, broken[1], broken)
}
