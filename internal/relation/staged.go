package relation

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// Staged transactions split a mutation into validate-and-stamp (Stage*)
// and apply (Commit*), so a write-ahead log can sit between the two: the
// caller stages the transaction, appends the stamped records to the log,
// and commits to memory only once the append is accepted. A staging
// failure leaves the relation untouched; an abandoned stage burns only a
// clock tick and a surrogate, both of which tolerate gaps. Commit must be
// called before any other mutation of the relation, or transaction times
// would interleave out of order — the catalog guarantees this by holding
// the relation's exclusive lock across the stage/log/commit sequence.

// admitTT is the one rule on a transaction time entering the backlog: it
// does not precede the backlog's last record. Staging and redo both call
// it, so nothing is accepted live that replay would refuse.
func (r *Relation) admitTT(tt chronon.Chronon) error {
	if last, ok := r.newest(); ok && tt < last {
		return fmt.Errorf("tt %v before %v", tt, last)
	}
	return nil
}

// stamp takes the transaction time of a validated transaction: the clock's
// next, moved just past the newest time the backlog holds or this relation
// has stamped when the clock issues one at or below it — a clock that
// restarted behind persisted stamps and that replay could not re-seed. So a
// relation's stamps always go forward, a batch staged before any of it is
// committed included, and admitTT accepts each of them.
func (r *Relation) stamp(what string) (chronon.Chronon, error) {
	floor := r.stamped
	if last, ok := r.newest(); ok {
		floor = chronon.Max(floor, last)
	}
	tt := chronon.Max(r.clock.Next(), floor.Add(1))
	if err := r.admitTT(tt); err != nil {
		return 0, fmt.Errorf("relation %s: %s: %w", r.schema.Name, what, err)
	}
	r.stamped = tt
	return tt, nil
}

// StageInsert validates an insertion, stamps it with the next transaction
// time, and runs the guards, without applying it. The returned element is
// exactly what CommitInsert will store.
func (r *Relation) StageInsert(ins Insertion) (*element.Element, error) {
	e, err := r.buildElement(ins)
	if err != nil {
		return nil, err
	}
	if e.TTStart, err = r.stamp("insert"); err != nil {
		return nil, err
	}
	e.TTEnd = chronon.Forever
	for _, g := range r.guards {
		if err := g.CheckInsert(r, e); err != nil {
			return nil, fmt.Errorf("relation %s: insert rejected: %w", r.schema.Name, err)
		}
	}
	return e, nil
}

// CommitInsert applies a staged insertion.
func (r *Relation) CommitInsert(e *element.Element) { r.applyInsert(e) }

// StageDelete validates a logical deletion and stamps its transaction
// time, without applying it.
func (r *Relation) StageDelete(es surrogate.Surrogate) (*element.Element, chronon.Chronon, error) {
	i, ok := r.position(es)
	if !ok {
		return nil, 0, fmt.Errorf("relation %s: delete %v: %w", r.schema.Name, es, ErrNoSuchElement)
	}
	e := r.staged(i)
	if !e.Current() {
		return nil, 0, fmt.Errorf("relation %s: delete %v: %w", r.schema.Name, es, ErrAlreadyDeleted)
	}
	tt, err := r.stamp("delete")
	if err != nil {
		return nil, 0, err
	}
	for _, g := range r.guards {
		if err := g.CheckDelete(r, e, tt); err != nil {
			return nil, 0, fmt.Errorf("relation %s: delete rejected: %w", r.schema.Name, err)
		}
	}
	return e, tt, nil
}

// CommitDelete applies a staged deletion. The element is closed by
// copy-on-close: the returned copy (TTEnd = tt) replaces e in the relation's
// store (Store), so whatever queries that store sees the close; e itself is
// left open for any pinned read snapshot. e must be what StageDelete or
// StageModify returned under the lock still held.
func (r *Relation) CommitDelete(e *element.Element, tt chronon.Chronon) *element.Element {
	i, ok := r.position(e.ES)
	if !ok {
		panic(fmt.Sprintf("relation %s: commit of a delete that was not staged: %v", r.schema.Name, e.ES))
	}
	return r.applyDelete(i, e, tt)
}

// StageModify validates the paper's modification — a logical delete of
// the current element plus an insert of its replacement, both at one
// transaction time — without applying either. Commit with CommitDelete
// then CommitInsert, in that order.
func (r *Relation) StageModify(es surrogate.Surrogate, vt element.Timestamp, varying []element.Value) (old, repl *element.Element, tt chronon.Chronon, err error) {
	i, ok := r.position(es)
	if !ok {
		return nil, nil, 0, fmt.Errorf("relation %s: modify %v: %w", r.schema.Name, es, ErrNoSuchElement)
	}
	old = r.staged(i)
	if !old.Current() {
		return nil, nil, 0, fmt.Errorf("relation %s: modify %v: %w", r.schema.Name, es, ErrAlreadyDeleted)
	}
	repl, err = r.buildElement(Insertion{
		Object:    old.OS,
		VT:        vt,
		Invariant: old.Invariant,
		Varying:   varying,
		UserTimes: old.UserTimes,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if tt, err = r.stamp("modify"); err != nil {
		return nil, nil, 0, err
	}
	repl.TTStart = tt
	repl.TTEnd = chronon.Forever
	for _, g := range r.guards {
		if err := g.CheckDelete(r, old, tt); err != nil {
			return nil, nil, 0, fmt.Errorf("relation %s: modify rejected: %w", r.schema.Name, err)
		}
		if err := g.CheckInsert(r, repl); err != nil {
			return nil, nil, 0, fmt.Errorf("relation %s: modify rejected: %w", r.schema.Name, err)
		}
	}
	return old, repl, tt, nil
}
