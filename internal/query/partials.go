package query

import (
	"repro/internal/storage"
	"repro/internal/vec"
)

// Run partials: the second level of memo under the aggregate result cache.
// The result cache keys a whole answer by mutation epoch, so one write
// empties it; but a write almost never changes what a full chunk of the
// store contributes to a fold over valid time. For a chunk the reader
// reports Stable (full, read current-only, not cut by the clamp) that
// contribution — the accumulator cells of the windows it populates, before
// the window mode is applied — depends only on which of its elements are
// current, and closes are monotone and arrive in one sequence, so within
// one generation of the store (chunk ordinal, lifetime close count)
// identifies it exactly, on every organization, sealed or not, whichever
// engine folded it. A query therefore merges the partial of every chunk it
// has one for and folds only the rest: the chunks filled or closed into
// since the last query, the ones a clamp may cut, and the partial tail.

// RunPartials holds, for one (relation, partial fingerprint, store
// generation), what each full chunk contributes. It is immutable once
// handed out: an execution that learns more extends a copy, so concurrent
// readers and the cache never see one change.
type RunPartials struct {
	runs  []*runPartial // by run ordinal; nil where nothing is known
	bytes int64
}

// runPartial is one run's contribution at one close count. A nil part
// records that the run was folded and its cells cannot be merged exactly
// (vec.ColAgg.Export), which spares the next query the attempt.
type runPartial struct {
	closed int
	part   *vec.Partial
}

// bytes is the footprint of one run's entry: the record, its slot, and
// the cells when there are any.
func (rp *runPartial) bytes() int64 {
	if rp == nil {
		return 0
	}
	if rp.part == nil {
		return 32
	}
	return 32 + rp.part.Bytes()
}

// at returns what is known about a run, nil for nothing.
func (p *RunPartials) at(run int) *runPartial {
	if p == nil || run >= len(p.runs) {
		return nil
	}
	return p.runs[run]
}

// Size approximates the resident bytes, for the cache's budget.
func (p *RunPartials) Size() int64 {
	if p == nil {
		return 0
	}
	return 48 + p.bytes
}

// PartialMemo carries run partials into one aggregate execution and what it
// learned back out. The catalog fills Partials from its cache before the
// call and stores it back when Grew.
type PartialMemo struct {
	// Partials is what earlier executions memoized, nil for nothing; when
	// Grew, the extended copy to keep instead.
	Partials *RunPartials
	// Budget caps Size: past it runs are folded without being learned, so
	// an aggregate with many windows per run degrades to a memoized prefix.
	Budget int64
	Grew   bool

	full  bool
	alone *vec.ColAgg // folds one chunk by itself, see learn
}

// lookup finds what is known about the unit's run at its close count.
// learn reports whether a partial folded now should be recorded: not when
// one is already known, and not when a later view already recorded a
// higher close count — this reader then holds an older pinned view, and
// what it folds would only displace the fresher entry.
func (m *PartialMemo) lookup(u storage.Unit) (known *runPartial, learn bool) {
	rp := m.Partials.at(u.Run)
	if rp != nil && rp.closed == u.Closed {
		return rp, false
	}
	return nil, !m.full && (rp == nil || rp.closed < u.Closed)
}

// learn folds the unit on its own (fold is the engine's kernel over the
// unit the reader stands on), records what it contributes and merges that
// into agg in place of folding it there, counting the visit in stats and
// reporting whether it did. False leaves agg and stats untouched and the
// caller folds the unit itself: when the chunk fails by itself (the plain
// fold then reports the first error in arrival order, which may be an
// earlier one against the running state), when its cells do not merge
// exactly, and when they conflict with what agg holds.
func (m *PartialMemo) learn(spec *vec.Spec, u storage.Unit, fold func(*vec.ColAgg, *vec.ExecStats) error, agg *vec.ColAgg, stats *vec.ExecStats) bool {
	if m.alone == nil {
		m.alone, _ = vec.NewColAgg(spec) // the caller's NewColAgg validated spec
	}
	m.alone.Reset()
	var visit vec.ExecStats
	if fold(m.alone, &visit) != nil {
		return false
	}
	part, exact := m.alone.Export()
	if !exact {
		m.record(u, nil)
		return false
	}
	if !agg.Merge(part) {
		return false
	}
	m.record(u, part)
	stats.Batches += visit.Batches
	stats.Rows += visit.Rows
	return true
}

// record keeps part (nil: not mergeable) as the unit's contribution,
// copying the memoized value on the first addition.
func (m *PartialMemo) record(u storage.Unit, part *vec.Partial) {
	rp := &runPartial{closed: u.Closed, part: part}
	delta := rp.bytes() - m.Partials.at(u.Run).bytes()
	if m.Partials.Size()+delta > m.Budget {
		m.full = true
		return
	}
	if !m.Grew {
		next := &RunPartials{}
		if m.Partials != nil {
			next.runs = append(next.runs, m.Partials.runs...)
			next.bytes = m.Partials.bytes
		}
		m.Partials, m.Grew = next, true
	}
	p := m.Partials
	for len(p.runs) <= u.Run {
		p.runs = append(p.runs, nil)
	}
	p.runs[u.Run] = rp
	p.bytes += delta
}
