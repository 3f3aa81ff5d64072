package relation

import (
	"fmt"
	"math"
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
	// horizon. The survivors move to a fresh heap, in surrogate order still,
	// which the caller re-labels; each kept delete record is recounted
	// against the insert records kept before it.
	//
	// A version ApplyLog adopted off a batch frame shares its element and
	// value arrays with the frame's other versions (backlog.Slab): one
	// survivor keeps its discarded neighbours alive. Once the adopted
	// versions vacuumed away since the last copy are at least as many as
	// the adopted survivors, the survivors move as copies. So what a
	// survivor pins never outweighs the adopted survivors themselves, and
	// each copy is paid for by a discarded version. Every version from the first one
	// ApplyLog adopted since the last copy on counts as adopted (positions
	// from r.adopted); a relation written only live never copies.
	removed := sort.Search(len(r.closes), func(c int) bool { return r.closes[c].tt > horizon })
	if removed == 0 {
		return 0, nil
	}
	n, from, dead := r.versions.Len(), min(r.adopted, r.versions.Len()), 0
	if from < n {
		// The adopted versions among the removed ones. Versions ascend in
		// ES unless the relation has degraded to byES.
		first := r.versions.ESAt(from)
		for _, cl := range r.closes[:removed] {
			adopted := cl.es >= first
			if r.byES != nil {
				adopted = r.byES[cl.es] >= from
			}
			if adopted {
				dead++
			}
		}
	}
	shed, alive := r.shed+dead, n-from-dead
	copying := alive > 0 && shed >= alive
	fresh, kept, c := storage.NewHeap(), r.closes[removed:], 0
	r.adopted, r.shed = math.MaxInt, 0
	for i := 0; i <= n; i++ {
		for ; c < len(kept) && kept[c].inserts <= i; c++ {
			kept[c].inserts = fresh.Len()
		}
		if i == from && alive > 0 && !copying {
			r.adopted, r.shed = fresh.Len(), shed
		}
		if i == n {
			break
		}
		if v := r.versions.At(i); v.TTEnd > horizon {
			if copying && i >= from {
				v = v.Clone()
			}
			_ = fresh.Insert(v) // the heap refuses nothing
		}
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
