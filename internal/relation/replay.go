package relation

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// Replay reconstructs a relation from a persisted backlog: the append-only
// journal of insertions and logical deletions is the authoritative history
// (the backlog representation of [JMRS90] cited in §2), so replaying it
// rebuilds every historical state. The records must be in non-decreasing
// transaction-time order with internally consistent surrogates; Replay
// validates as it goes and rejects corrupt histories.
//
// Replayed elements keep their original surrogates and transaction times;
// the relation's generators are advanced past the replayed maxima so new
// transactions cannot collide. If the clock supports AdvanceTo (as
// tx.LogicalClock does) it is advanced to the last replayed transaction
// time, keeping future transaction times monotone.
//
// Guards are not consulted during replay: the history was validated when
// it was first stored. Attach enforcers after replaying.
//
// The records may be a live relation's backlog (persist.go hands them
// through), so the relation stores a copy of each inserted element;
// Restore is Replay over records the caller hands over.
func Replay(schema Schema, clock tx.Clock, records []LogRecord) (*Relation, error) {
	return replay(schema, clock, records, true)
}

// Restore is Replay over records the caller has just decoded and hands
// over (a snapshot's, backlog.Load): each inserted element is stamped with
// its record's transaction times and normalized in place, as ApplyLog
// does, not copied first. The caller must neither keep a writable reference to
// the elements nor restore them twice.
func Restore(schema Schema, clock tx.Clock, records []LogRecord) (*Relation, error) {
	return replay(schema, clock, records, false)
}

func replay(schema Schema, clock tx.Clock, records []LogRecord, clone bool) (*Relation, error) {
	r := New(schema, clock)
	for i, rec := range records {
		if clone && rec.Op == OpInsert && rec.Elem != nil {
			rec.Elem = rec.Elem.Clone()
		}
		if _, _, err := r.redo(rec); err != nil {
			return nil, fmt.Errorf("relation: replay record %d: %w", i, err)
		}
	}
	if last, ok := r.newest(); ok {
		r.advanceClock(last)
	}
	return r, nil
}

// ApplyLog redoes one persisted backlog record against a live relation —
// the incremental form of Replay, used for write-ahead-log recovery after
// the snapshot has been replayed and for follower apply. The same
// validations apply per record: non-decreasing transaction time, consistent
// surrogates, schema-typed values. Surrogate generators are reserved past
// the record and an AdvanceTo-capable clock is advanced, exactly as Replay
// does in bulk.
//
// An inserted element is stamped in place and copied into the store's
// columns: rec.Elem is what the relation stores, with its transaction times
// and its empty lists nil, so the caller must have just built it (decoded it
// off the log) and must neither retain a writable reference nor apply it
// twice. now is the version the relation holds after the record — rec.Elem
// for an insert, the closed copy for a delete — and was the open version a
// delete closed.
//
// Guards are not re-checked (the history was validated when first stored)
// but they do observe the application through Applied, so enforcers
// attached before recovery end warm.
func (r *Relation) ApplyLog(rec LogRecord) (was, now *element.Element, err error) {
	if was, now, err = r.redo(rec); err != nil {
		return nil, nil, fmt.Errorf("relation %s: log apply: %w", r.schema.Name, err)
	}
	r.advanceClock(rec.TT)
	return was, now, nil
}

// redo validates one backlog record against the relation and applies it,
// storing an inserted rec.Elem, normalized (normalize).
func (r *Relation) redo(rec LogRecord) (was, now *element.Element, err error) {
	if err := r.admitTT(rec.TT); err != nil {
		return nil, nil, err
	}
	e := rec.Elem
	switch rec.Op {
	case OpInsert:
		if e == nil {
			return nil, nil, fmt.Errorf("insert without element")
		}
		if e.ES.IsNone() || e.OS.IsNone() {
			return nil, nil, fmt.Errorf("missing surrogate")
		}
		if _, dup := r.position(e.ES); dup {
			return nil, nil, fmt.Errorf("duplicate element surrogate %v", e.ES)
		}
		if e.VT.Kind() != r.schema.ValidTime {
			return nil, nil, fmt.Errorf("%v stamp in %v relation", e.VT.Kind(), r.schema.ValidTime)
		}
		if err := checkValues(r.schema.Name, "time-invariant", r.schema.Invariant, e.Invariant); err != nil {
			return nil, nil, err
		}
		if err := checkValues(r.schema.Name, "time-varying", r.schema.Varying, e.Varying); err != nil {
			return nil, nil, err
		}
		if len(e.UserTimes) != len(r.schema.UserTimes) {
			return nil, nil, fmt.Errorf("%d user-defined times for %d columns", len(e.UserTimes), len(r.schema.UserTimes))
		}
		if err := r.checkSize(e); err != nil {
			return nil, nil, err
		}
		normalize(e)
		e.TTStart, e.TTEnd = rec.TT, chronon.Forever
		r.applyInsert(e)
		r.esGen.Reserve(uint64(e.ES))
		r.osGen.Reserve(uint64(e.OS))
		return nil, e, nil
	case OpDelete:
		if e == nil {
			return nil, nil, fmt.Errorf("delete without element")
		}
		i, ok := r.position(e.ES)
		if !ok {
			return nil, nil, fmt.Errorf("delete of unknown element %v", e.ES)
		}
		if was = r.staged(i); !was.Current() {
			return nil, nil, fmt.Errorf("delete of already-deleted element %v", e.ES)
		}
		return was, r.applyDelete(i, was, rec.TT), nil
	}
	return nil, nil, fmt.Errorf("unknown op %d", rec.Op)
}

// advanceClock moves an AdvanceTo-capable clock (tx.LogicalClock is one) to
// a replayed transaction time, keeping future transaction times monotone.
func (r *Relation) advanceClock(tt chronon.Chronon) {
	if adv, ok := r.clock.(interface{ AdvanceTo(chronon.Chronon) }); ok {
		adv.AdvanceTo(tt)
	}
}

// ReservedSurrogates reports the highest element and object surrogates in
// use, for persistence metadata.
func (r *Relation) ReservedSurrogates() (es, os surrogate.Surrogate) {
	return surrogate.Surrogate(r.esGen.Issued()), surrogate.Surrogate(r.osGen.Issued())
}
