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
// a stable chunk whose partial is memoized at its current close count is
// merged; every other unit is folded — a stable chunk with no valid partial
// by way of PartialMemo.learn, the one place a partial comes to exist.
// Whenever a partial cannot stand in for folding the chunk into the running
// state, the chunk is folded after all, so values and errors are those of
// the plain fold.
//
// A unit is folded row at a time where its elements lie (ColAgg.ConsumeRows),
// in arrival (ES) order, so floating-point accumulation is bit-identical to
// vec.RowAggregateRuns, the definition the differential harness asserts
// against. event says whether the relation is event-stamped, and the
// returned stats feed the batch counters. memo, when not nil, lets the loop
// merge the partials of full chunks folded before instead of folding them
// again (partials.go); nil folds every chunk.
func (en *Engine) AggregateCtx(ctx context.Context, node *plan.Node, spec *vec.Spec, event bool, memo *PartialMemo) (*vec.AggResult, vec.ExecStats, error) {
	var stats vec.ExecStats
	r := storage.NewBatchReader(en.store, event)
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
	agg, err := vec.NewColAgg(spec)
	if err != nil {
		return nil, stats, err
	}
	for units := 1; ; units++ {
		if units%batchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		if memo != nil && memo.mergeGroup(r, spec, agg, &stats) {
			continue
		}
		u, ok := r.Advance()
		if !ok {
			break
		}
		learn := false
		if memo != nil && u.Stable {
			var part *vec.Partial
			if part, learn = memo.lookup(u); part != nil && agg.Merge(part) {
				stats.RunsMerged++
				continue
			}
		}
		if u.Run >= 0 {
			stats.RunsFolded++
		}
		if learn && memo.learn(spec, u, r.Rows(), agg, &stats) {
			continue
		}
		if err := agg.ConsumeRows(r.Rows(), &stats); err != nil {
			return nil, stats, err
		}
	}
	stats.ChunksPruned = int64(r.Skipped())
	res, err := agg.ResultCtx(ctx)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
