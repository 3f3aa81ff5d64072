package relation

import (
	"fmt"

	"repro/internal/chronon"
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

	// One pass filters both lists in place: a close record is kept with its
	// clone and recounted against the insert records kept before it.
	removed, c, kept := 0, 0, r.closes[:0]
	keep := func(upTo int) {
		for ; c < len(r.closes) && r.closes[c].inserts <= upTo; c++ {
			if rec := r.closes[c]; rec.elem.TTEnd > horizon {
				kept = append(kept, closeRecord{inserts: upTo - removed, elem: rec.elem})
			}
		}
	}
	for i, e := range r.versions {
		keep(i)
		if e.TTEnd <= horizon {
			removed++
			continue
		}
		r.versions[i-removed] = e
	}
	keep(len(r.versions))
	clear(r.versions[len(r.versions)-removed:])
	r.versions = r.versions[:len(r.versions)-removed] // still in surrogate order: a filter keeps it
	clear(r.closes[len(kept):])
	r.closes = kept
	if removed > 0 && r.byES != nil {
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
