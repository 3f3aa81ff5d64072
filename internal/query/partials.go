package query

import (
	"repro/internal/element"
	"repro/internal/qcache"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Chunk partials: the aggregates' kinds of the chunk memo (qcache.Chunks),
// under the aggregate result cache. The result cache keys a whole answer by
// mutation epoch, so one write empties it; but a write almost never changes
// what a full chunk of the store contributes to a fold over valid time. For
// a chunk the reader reports Stable (full, read current-only, not cut by
// the clamp) that contribution — the accumulator cells of the windows it
// populates, before the window mode is applied — depends only on which of
// its elements are current, and closes are monotone and arrive in one
// sequence, so within one generation of the store (chunk ordinal, lifetime
// close count) identifies it exactly, on every organization, sealed or not.
// A query therefore merges the partial of every chunk it has one for and
// folds only the rest: the chunks filled or closed into since the last
// query, and the partial tail. A chunk a clamp cuts (Unit.Cut) merges its
// partial too, for the windows wholly inside the clamp
// (vec.ColAgg.MergeWhole); it is folded when its partial populates a window
// the clamp cuts. It is learned only when its envelope meets no such window,
// folded alone under no clamp, as its partial is what it contributes under
// any.
//
// Above the chunks sit groups: every aligned stretch of groupRuns full
// chunks, each stable, cut or entirely closed, gets one partial merged from its
// chunks' partials once all of them are known exactly, so an append-only
// history costs a query one merge per group rather than one per chunk. A
// group is named by its ordinal and the sum of its chunks' close counts:
// closes are monotone and views of one generation are ordered chunk by
// chunk, so an equal sum means every chunk's count is equal.
//
// Each partial is its own cache entry, derived state that lives only in the
// cache: one too large for an entry is used by the execution that folded it
// and not kept, and nothing else bounds what the memo holds.

// groupRuns is how many aligned chunks one group partial stands for.
const groupRuns = 16

// PartialMemo carries the chunk memo into one aggregate execution: Runs
// holds each full chunk's *vec.Partial by chunk ordinal, Groups each aligned
// group's by group ordinal. A nil partial in Runs records that the chunk was
// folded and its cells cannot be merged exactly (vec.ColAgg.Cells), which
// spares the next query the attempt; a group's is never nil.
type PartialMemo struct {
	Runs, Groups qcache.Chunks

	alone *vec.ColAgg // folds one chunk by itself, see learn
	whole vec.Spec    // alone's spec: the statement's without its clamp
	units [groupRuns]storage.Unit
	parts [groupRuns]*vec.Partial
}

// partialSize approximates one entry's resident bytes: the record and the
// cells when there are any.
func partialSize(p *vec.Partial) int64 {
	if p == nil {
		return 32
	}
	return 32 + p.Bytes()
}

// lookup returns the unit's memoized partial when it is known at the unit's
// close count (nil when the chunk is known not to merge), and otherwise
// whether a partial folded now should be learned.
func (m *PartialMemo) lookup(u storage.Unit) (part *vec.Partial, learn bool) {
	v, exact, keep := m.Runs.Get(u.Run, u.Closed)
	if !exact {
		return nil, keep
	}
	return v.(*vec.Partial), false
}

// mergeGroup merges, in place of folding them, the group of runs the reader
// stands before, and steps the reader past it, counting the merge in stats;
// it reports whether it did. The group's partial is the memoized one when it
// is known at the group's close count, or else is built now from its runs'
// partials — only when every live run's is known at its own count and
// exact, and only when the memo would keep it — and recorded. False leaves
// agg, stats and the reader untouched: the caller goes run by run, which
// decides values and errors as it always has.
func (m *PartialMemo) mergeGroup(r *storage.BatchReader, spec *vec.Spec, agg *vec.ColAgg, stats *vec.ExecStats) bool {
	units := m.units[:]
	if !r.Group(units) {
		return false
	}
	g, closed, live, cut := units[0].Run/groupRuns, 0, int64(0), false
	for _, u := range units {
		closed += u.Closed
		if u.Stable || u.Cut {
			live++
		}
		cut = cut || u.Cut
	}
	var part *vec.Partial
	if v, exact, keep := m.Groups.Get(g, closed); exact {
		part = v.(*vec.Partial)
	} else if keep {
		part = m.build(spec, g, closed, units)
	}
	if part == nil || !merge(agg, part, cut) {
		return false
	}
	r.Pass(units)
	stats.RunsMerged += live
	stats.GroupsMerged++
	return true
}

// build merges the partials of a group's live runs, in run order, into the
// group's, records it and returns it; nil when some live run has no exact
// partial at its close count or when their cells conflict.
func (m *PartialMemo) build(spec *vec.Spec, g, closed int, units []storage.Unit) *vec.Partial {
	parts := m.parts[:0]
	for _, u := range units {
		if !u.Stable && !u.Cut {
			continue
		}
		part, _ := m.lookup(u)
		if part == nil {
			return nil
		}
		parts = append(parts, part)
	}
	m.solo(spec)
	for _, part := range parts {
		if !m.alone.Merge(part) {
			return nil // the runs conflict, and so would folding them
		}
	}
	part, _ := m.alone.Cells() // exact: every run's was
	m.Groups.Put(g, closed, part, partialSize(part))
	return part
}

// solo readies the accumulator a run or group is folded into on its own. It
// folds under no clamp: a partial is what its chunks contribute whatever
// clamp a statement puts around them, and learn only folds a chunk that lies
// inside the clamp.
func (m *PartialMemo) solo(spec *vec.Spec) {
	if m.alone == nil {
		m.whole = *spec
		m.whole.Filter.HasVT = false
		m.alone, _ = vec.NewColAgg(&m.whole) // the caller's NewColAgg validated spec
	}
	m.alone.Reset()
}

// learn folds the unit's rows on their own, records what they contribute
// and merges that into agg in place of folding them there, counting the
// visit in stats and reporting whether it did. False leaves agg and stats
// untouched and the caller folds the unit itself: when the chunk fails by
// itself (the plain fold then reports the first error in arrival order,
// which may be an earlier one against the running state), when its cells
// do not merge exactly, and when they do not merge into what agg holds.
func (m *PartialMemo) learn(spec *vec.Spec, u storage.Unit, rows []*element.Element, agg *vec.ColAgg, stats *vec.ExecStats) bool {
	m.solo(spec)
	var visit vec.ExecStats
	if m.alone.ConsumeRows(rows, &visit) != nil {
		return false
	}
	part, exact := m.alone.Cells()
	if !exact {
		m.Runs.Put(u.Run, u.Closed, (*vec.Partial)(nil), partialSize(nil))
		return false
	}
	m.Runs.Put(u.Run, u.Closed, part, partialSize(part))
	if !merge(agg, part, u.Cut) {
		return false
	}
	stats.Rows += visit.Rows
	return true
}
