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
//
// Above the chunks sit groups: every aligned stretch of groupRuns full
// chunks, each stable or entirely closed, gets one partial merged from its
// chunks' partials once all of them are known exactly, so an append-only
// history costs a query one merge per group rather than one per chunk. A
// group is named by its ordinal and the sum of its chunks' close counts:
// closes are monotone and views of one generation are ordered chunk by
// chunk, so an equal sum means every chunk's count is equal.

// groupRuns is how many aligned chunks one group partial stands for.
const groupRuns = 16

// RunPartials holds, for one (relation, partial fingerprint, store
// generation), what each full chunk contributes. It is immutable once
// handed out: an execution that learns more extends a copy, so concurrent
// readers and the cache never see one change.
type RunPartials struct {
	runs   []*runPartial // by run ordinal; nil where nothing is known
	groups []*runPartial // by group ordinal, closed summed over its runs
	bytes  int64
}

// runPartial is one run's (or group's) contribution at one close count. A
// nil part records that the run was folded and its cells cannot be merged
// exactly (vec.ColAgg.Export), which spares the next query the attempt; a
// group's part is never nil.
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

// at returns what is known about entry i of list, nil for nothing.
func at(list []*runPartial, i int) *runPartial {
	if i >= len(list) {
		return nil
	}
	return list[i]
}

// run returns what is known about run k, group what is known about group g.
func (p *RunPartials) run(k int) *runPartial {
	if p == nil {
		return nil
	}
	return at(p.runs, k)
}

func (p *RunPartials) group(g int) *runPartial {
	if p == nil {
		return nil
	}
	return at(p.groups, g)
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
	units [groupRuns]storage.Unit
}

// lookup finds what is known about the unit's run at its close count.
// learn reports whether a partial folded now should be recorded: not when
// one is already known, and not when a later view already recorded a
// higher close count — this reader then holds an older pinned view, and
// what it folds would only displace the fresher entry.
func (m *PartialMemo) lookup(u storage.Unit) (known *runPartial, learn bool) {
	return m.check(m.Partials.run(u.Run), u.Closed)
}

// check is lookup's rule for one entry, a run's or a group's.
func (m *PartialMemo) check(rp *runPartial, closed int) (known *runPartial, learn bool) {
	if rp != nil && rp.closed == closed {
		return rp, false
	}
	return nil, !m.full && (rp == nil || rp.closed < closed)
}

// mergeGroup merges, in place of folding them, the group of runs the reader
// stands before, and steps the reader past it, counting the merge in stats;
// it reports whether it did. The group's partial is the memoized one when it
// is known at the group's close count, or else is built now from its runs'
// partials — only when every live run's is known at its own count and
// exact, and only when lookup's rule would let a run be learned — and
// recorded. False leaves agg, stats and the reader untouched: the caller
// goes run by run, which decides values and errors as it always has.
func (m *PartialMemo) mergeGroup(r *storage.BatchReader, spec *vec.Spec, agg *vec.ColAgg, stats *vec.ExecStats) bool {
	units := m.units[:]
	if !r.Group(units) {
		return false
	}
	g, closed, live := units[0].Run/groupRuns, 0, int64(0)
	for _, u := range units {
		closed += u.Closed
		if u.Stable {
			live++
		}
	}
	known, learn := m.check(m.Partials.group(g), closed)
	if known == nil && learn {
		known = m.build(spec, g, closed, units)
	}
	if known == nil || !agg.Merge(known.part) {
		return false
	}
	r.Pass(units)
	stats.RunsMerged += live
	stats.GroupsMerged++
	return true
}

// build merges the partials of a group's live runs, in run order, into the
// group's, records it and returns the entry; nil when some live run has no
// exact partial at its close count, when their cells conflict, or when the
// budget has no room for it.
func (m *PartialMemo) build(spec *vec.Spec, g, closed int, units []storage.Unit) *runPartial {
	for _, u := range units {
		if rp := m.Partials.run(u.Run); u.Stable && (rp == nil || rp.closed != u.Closed || rp.part == nil) {
			return nil
		}
	}
	m.solo(spec)
	rp := &runPartial{closed: closed}
	for _, u := range units {
		if u.Stable && !m.alone.Merge(m.Partials.run(u.Run).part) {
			return nil // the runs conflict, and so would folding them
		}
	}
	rp.part, _ = m.alone.Export() // exact: every run's was
	if !m.record(true, g, rp) {
		return nil
	}
	return rp
}

// solo readies the accumulator a run or group is folded into on its own.
func (m *PartialMemo) solo(spec *vec.Spec) {
	if m.alone == nil {
		m.alone, _ = vec.NewColAgg(spec) // the caller's NewColAgg validated spec
	}
	m.alone.Reset()
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
	m.solo(spec)
	var visit vec.ExecStats
	if fold(m.alone, &visit) != nil {
		return false
	}
	part, exact := m.alone.Export()
	if !exact {
		m.recordRun(u, nil)
		return false
	}
	if !agg.Merge(part) {
		return false
	}
	m.recordRun(u, part)
	stats.Batches += visit.Batches
	stats.Rows += visit.Rows
	return true
}

// recordRun keeps part (nil: not mergeable) as the unit's contribution.
func (m *PartialMemo) recordRun(u storage.Unit, part *vec.Partial) {
	m.record(false, u.Run, &runPartial{closed: u.Closed, part: part})
}

// record keeps rp as run i's entry, or group i's, copying the memoized
// value on the first addition, and reports whether it did: past the budget
// it records nothing and marks the memo full instead.
func (m *PartialMemo) record(group bool, i int, rp *runPartial) bool {
	old := m.Partials.run(i)
	if group {
		old = m.Partials.group(i)
	}
	delta := rp.bytes() - old.bytes()
	if m.Partials.Size()+delta > m.Budget {
		m.full = true
		return false
	}
	if !m.Grew {
		next := &RunPartials{}
		if m.Partials != nil {
			next.runs = append(next.runs, m.Partials.runs...)
			next.groups = append(next.groups, m.Partials.groups...)
			next.bytes = m.Partials.bytes
		}
		m.Partials, m.Grew = next, true
	}
	list := &m.Partials.runs
	if group {
		list = &m.Partials.groups
	}
	for len(*list) <= i {
		*list = append(*list, nil)
	}
	(*list)[i] = rp
	m.Partials.bytes += delta
	return true
}
