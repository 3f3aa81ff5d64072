package relation

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/chronon"
	"repro/internal/storage"
	"repro/internal/surrogate"
)

// Vacuum physically discards element versions that were logically deleted
// at or before the horizon, together with their backlog records. Temporal
// relations are append-only in principle, but practical systems bound the
// history they retain; vacuuming trades away the ability to roll back to
// states before the horizon.
//
// After Vacuum(h):
//
//   - Current, Timeslice, and every query at transaction times ≥ h are
//     unchanged;
//   - Rollback(tt) for tt < h is no longer faithful (it reports only the
//     surviving elements) — callers should consult VacuumHorizon first;
//   - the backlog reflects the surviving history only, and insert records
//     of vacuumed elements are gone.
//
// Vacuum returns the number of element versions discarded. The horizon
// must not regress: vacuuming to an earlier horizon than a previous call
// is an error.
func (r *Relation) Vacuum(horizon chronon.Chronon) (int, error) {
	if horizon < r.vacuumedTo {
		return 0, fmt.Errorf("relation %s: vacuum horizon %v before existing horizon %v",
			r.schema.Name, horizon, r.vacuumedTo)
	}
	r.vacuumedTo = horizon

	// A version goes with its delete record, and the delete records are in
	// tt order: the first removed of them hold the versions at or before the
	// horizon. The survivors are pushed into a fresh heap, in surrogate order
	// still, which the caller re-labels — each found by its tt⊣ column, read
	// out of the old store's columns in place into one scratch version and
	// copied into the new one's — and each kept delete record is recounted
	// against the insert records kept before it.
	removed := sort.Search(len(r.closes), func(c int) bool { return r.closes[c].tt > horizon })
	if removed == 0 {
		return 0, nil
	}
	fresh, kept, c, v := storage.NewHeap(), r.closes[removed:], 0, new(storage.Version)
	for i := range r.versions.Len() {
		for ; c < len(kept) && kept[c].inserts <= i; c++ {
			kept[c].inserts = fresh.Len()
		}
		if r.versions.TTEndAt(i) > horizon {
			_ = fresh.Insert(storage.LoadAt(r.versions, i, v)) // the heap refuses nothing
		}
	}
	for ; c < len(kept); c++ {
		kept[c].inserts = fresh.Len()
	}
	r.versions, r.closes = fresh, slices.Delete(r.closes, 0, removed)
	if r.byES != nil {
		r.reindex()
	}
	return removed, nil
}

// VacuumHorizon reports the transaction time up to which history has been
// vacuumed (MinChronon if never). Rollback queries strictly before the
// horizon are not faithful.
func (r *Relation) VacuumHorizon() chronon.Chronon { return r.vacuumedTo }

// CanRollbackTo reports whether a rollback to tt reproduces the historical
// state faithfully.
func (r *Relation) CanRollbackTo(tt chronon.Chronon) bool {
	return tt >= r.vacuumedTo
}

// LiveObjects reports the object surrogates that still have versions after
// vacuuming, in first-seen order. Vacuum drops dead versions physically, so
// this is Objects: derived on demand, O(versions).
func (r *Relation) LiveObjects() []surrogate.Surrogate { return r.Objects() }
