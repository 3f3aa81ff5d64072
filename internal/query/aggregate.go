package query

import (
	"context"

	"repro/internal/chronon"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// batchCheckEvery is how many units the aggregate loop consumes between
// cooperative cancellation checks.
const batchCheckEvery = 8

// AggregateCtx executes a compiled window-aggregate plan: one unit of the
// reader at a time, in arrival order, between the bounds the store's order
// gives the plan's access-path leaf — on the vt-ordered log a valid-time
// clamp's binary search, under a tt-window pushdown the window's — and past
// every chunk a zone map prunes. Where the reader stands before an aligned
// group of chunks whose group partial is memoized, or can be built from its
// chunks', that one partial is merged and the group stepped over. Otherwise
// a chunk whose partial is memoized at its current close count is merged —
// one the clamp cuts, only for the windows wholly inside the clamp; every
// other unit is folded — a chunk with no valid partial that is stable, or
// cut but meeting no window the clamp cuts, by way of PartialMemo.learn,
// the one place a partial comes to exist. Whenever a
// partial cannot stand in for folding the chunk into the running state, the
// chunk is folded after all, so values and errors are those of the plain
// fold.
//
// A unit is folded where it lies, in arrival (ES) order: a sealed chunk from
// its columns (ColAgg.ConsumeCols), any other chunk row at a time from its
// elements (ColAgg.ConsumeRows), so floating-point accumulation is
// bit-identical to vec.RowAggregateRuns, the definition the differential
// harness asserts against. event says whether the relation is
// event-stamped, and the returned stats feed the batch counters. memo, when
// not nil, lets the loop merge the partials of full chunks folded before
// instead of folding them again (partials.go); nil folds every chunk.
func (en *Engine) AggregateCtx(ctx context.Context, node *plan.Node, spec *vec.Spec, event bool, memo *PartialMemo) (*vec.AggResult, vec.ExecStats, error) {
	var stats vec.ExecStats
	agg, err := vec.NewColAgg(spec)
	if err != nil {
		return nil, stats, err
	}
	if err := en.fold(ctx, storage.NewBatchReader(en.store, event), node, spec, memo, agg, &stats); err != nil {
		return nil, stats, err
	}
	res, err := agg.ResultCtx(ctx)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}

// AggregateCells is AggregateCtx keeping what it folded: beside the answer
// it returns the cells the answer was emitted from, in window order, when
// they are exact (vec.ColAgg.Cells) and nil otherwise — what Refold starts
// from at a later epoch.
func (en *Engine) AggregateCells(ctx context.Context, node *plan.Node, spec *vec.Spec, event bool, memo *PartialMemo) (*vec.AggResult, *vec.Partial, vec.ExecStats, error) {
	var stats vec.ExecStats
	agg, err := vec.NewColAgg(spec)
	if err != nil {
		return nil, nil, stats, err
	}
	if err := en.fold(ctx, storage.NewBatchReader(en.store, event), node, spec, memo, agg, &stats); err != nil {
		return nil, nil, stats, err
	}
	cells, exact := agg.Cells()
	if !exact {
		res, err := agg.ResultCtx(ctx)
		return res, nil, stats, err
	}
	res, err := cells.Emit(ctx, spec)
	if err != nil {
		return nil, nil, stats, err
	}
	return res, cells, stats, nil
}

// Refold answers the statement from base — the cells AggregateCells or
// Refold returned at an earlier view, in window order — by folding again
// only the windows of runs: ascending, disjoint, and holding every window
// whose cells a change since then can have moved. Each run is the chunk loop
// of AggregateCtx with the statement's clamp narrowed to the run's windows,
// so the store's order bounds it and the memo answers every chunk it
// contains, or cuts, that has not changed. The cells of every other window
// are base's. It returns the answer, the new cells (nil when the refolded
// ones are not exact) and what it did; the stats count the windows it
// refolded and reused. One reader serves every run, reset between them.
func (en *Engine) Refold(ctx context.Context, node *plan.Node, spec *vec.Spec, event bool, memo *PartialMemo, base *vec.Partial, runs []vec.WindowRun) (*vec.AggResult, *vec.Partial, vec.ExecStats, error) {
	var stats vec.ExecStats
	// One state for every run: the spec it folds under is the statement's,
	// its clamp narrowed to the run being folded.
	run := *spec
	agg, err := vec.NewColAgg(&run)
	if err != nil {
		return nil, nil, stats, err
	}
	w := spec.Width
	r := storage.NewBatchReader(en.store, event)
	for _, wr := range runs {
		run.Filter.HasVT = true
		run.Filter.VTLo, run.Filter.VTHi = wr.Lo*w, (wr.Hi+1)*w
		if f := spec.Filter; f.HasVT {
			run.Filter.VTLo, run.Filter.VTHi = max(run.Filter.VTLo, f.VTLo), min(run.Filter.VTHi, f.VTHi)
		}
		if err := en.fold(ctx, r, node, &run, memo, agg, &stats); err != nil {
			return nil, nil, stats, err
		}
		stats.WindowsRefolded += wr.Hi - wr.Lo + 1
	}
	cells, exact := agg.Splice(base, runs)
	stats.WindowsReused = int64(cells.Windows() - agg.Windows())
	res, err := cells.Emit(ctx, spec)
	if err != nil {
		return nil, nil, stats, err
	}
	if !exact {
		cells = nil
	}
	return res, cells, stats, nil
}

// fold runs the chunk loop for spec over the view into agg, adding to stats,
// with r, a reader over the view, reset to read it from its start.
func (en *Engine) fold(ctx context.Context, r *storage.BatchReader, node *plan.Node, spec *vec.Spec, memo *PartialMemo, agg *vec.ColAgg, stats *vec.ExecStats) error {
	r.Reset()
	if f := spec.Filter; f.HasVT {
		r.SetVTWindow(chronon.Chronon(f.VTLo), chronon.Chronon(f.VTHi))
		r.SeekVT(chronon.Chronon(f.VTLo), chronon.Chronon(f.VTHi))
	}
	if leaf := node.Leaf(); leaf.Kind == plan.TTWindowPushdown {
		r.SeekTT(chronon.Chronon(leaf.WinLo), chronon.Chronon(leaf.WinHi))
	}
	if spec.Filter.AsOf {
		r.SetAsOf(chronon.Chronon(spec.Filter.TT))
	} else {
		r.SetCurrentOnly()
	}
	for units := 1; ; units++ {
		if units%batchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if memo != nil && memo.mergeGroup(r, spec, agg, stats) {
			continue
		}
		u, ok := r.Advance()
		if !ok {
			break
		}
		learn := false
		if memo != nil && (u.Stable || u.Cut) {
			var part *vec.Partial
			if part, learn = memo.lookup(u); part != nil && merge(agg, part, u.Cut) {
				stats.RunsMerged++
				continue
			}
			// A cut chunk is learned where its partial will merge: folded
			// alone under no clamp, it is merged for its whole windows.
			learn = learn && (u.Stable || !spec.Cuts(int64(u.VTLo), int64(u.VTLast)))
		}
		if u.Run >= 0 {
			stats.RunsFolded++
		}
		if learn && memo.learn(spec, u, r, agg, stats) {
			continue
		}
		if err := consume(agg, r, stats); err != nil {
			return err
		}
	}
	stats.ChunksPruned += int64(r.Skipped())
	return nil
}

// consume folds the unit the reader stopped at into agg where it lies: a
// sealed chunk from its columns, any other chunk from its elements.
func consume(agg *vec.ColAgg, r *storage.BatchReader, stats *vec.ExecStats) error {
	if c := r.Cols(); c != nil {
		return agg.ConsumeCols(c, stats)
	}
	return agg.ConsumeRows(r.Rows(), stats)
}

// merge merges a chunk's or group's partial into agg, restricted to the
// windows wholly inside the clamp when the clamp cuts the rows behind it.
func merge(agg *vec.ColAgg, part *vec.Partial, cut bool) bool {
	if cut {
		return agg.MergeWhole(part)
	}
	return agg.Merge(part)
}
