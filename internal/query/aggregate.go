package query

import (
	"context"
	"sort"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// batchCheckEvery is how many batches the columnar loop consumes between
// cooperative cancellation checks.
const batchCheckEvery = 8

// AggregateCtx executes a compiled window-aggregate plan: the columnar
// batch engine when the planner (or a USING hint) chose the ColumnarScan
// leaf, the row reference engine otherwise. Both executions fold
// elements in arrival (ES) order, so floating-point accumulation is
// bit-identical across the two engines — the invariant the differential
// harness asserts. pq is the planner's view of the query (for access-
// path entry on the row side), event whether the relation is
// event-stamped, and the returned stats feed the batch counters. memo,
// when not nil, lets the columnar engine merge the partials of sealed
// runs it has folded before instead of decoding them again (partials.go);
// nil folds every run.
func (en *Engine) AggregateCtx(ctx context.Context, node *plan.Node, pq plan.Query, spec *vec.Spec, event bool, memo *PartialMemo) (*vec.AggResult, vec.ExecStats, error) {
	var stats vec.ExecStats
	leaf := node.Leaf()
	if leaf.Kind == plan.ColumnarScan {
		res, err := en.aggregateColumnar(ctx, spec, event, memo, &stats)
		if err != nil {
			return nil, stats, err
		}
		en.record(node, int(stats.Rows))
		return res, stats, nil
	}
	runs, touched := en.aggregateCandidates(leaf, pq)
	stats.Rows = int64(touched)
	res, err := vec.RowAggregateRuns(ctx, spec, runs)
	if err != nil {
		return nil, stats, err
	}
	en.record(node, touched)
	return res, stats, nil
}

// aggregateColumnar is the batch engine's loop: one unit of the reader at
// a time, in arrival order. A stable sealed run whose partial is memoized
// at its current close count is merged; every other unit is decoded and
// consumed — a stable run with no valid partial by way of PartialMemo.learn,
// the one place a partial comes to exist. Whenever a partial cannot stand
// in for consuming the run into the running state, the decoded batch is
// consumed after all, so values and errors are those of the plain fold.
func (en *Engine) aggregateColumnar(ctx context.Context, spec *vec.Spec, event bool, memo *PartialMemo, stats *vec.ExecStats) (*vec.AggResult, error) {
	r := storage.NewBatchReader(en.store, event)
	if spec.Filter.HasVT {
		r.SetVTWindow(chronon.Chronon(spec.Filter.VTLo), chronon.Chronon(spec.Filter.VTHi))
	}
	if spec.Filter.AsOf {
		r.SetAsOf(chronon.Chronon(spec.Filter.TT))
	} else {
		r.SetCurrentOnly()
	}
	agg, err := vec.NewColAgg(spec)
	if err != nil {
		return nil, err
	}
	var b vec.Batch
	for units := 1; ; units++ {
		if units%batchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		u, ok := r.Advance()
		if !ok {
			break
		}
		learn := false
		if memo != nil && u.Stable {
			var known *runPartial
			if known, learn = memo.lookup(u); known != nil && known.part != nil && agg.Merge(known.part) {
				stats.RunsMerged++
				continue
			}
		}
		if err := r.Load(&b); err != nil {
			return nil, err
		}
		if u.Run >= 0 {
			stats.RunsFolded++
		}
		if learn && memo.learn(spec, u, &b, agg) {
			stats.Batches++
			stats.Rows += int64(b.N)
			continue
		}
		if err := agg.Consume(&b, stats); err != nil {
			return nil, err
		}
	}
	return agg.Result()
}

// aggregateCandidates materializes the row engine's input through the
// planned access path. The spec re-applies every predicate, so a
// superset is always sound; what matters is arrival (ES) order, which
// the log-backed paths yield naturally and the vt-index path restores
// by sorting — float sums must accumulate in the same order as the
// columnar engine's batch stream.
func (en *Engine) aggregateCandidates(leaf *plan.Node, pq plan.Query) (element.Runs, int) {
	switch leaf.Kind {
	case plan.TTWindowPushdown, plan.VTBinarySearch:
		els, touched := en.execute(leaf, pq)
		return element.Slice(els), touched
	case plan.BTreeIndexSeek:
		els, touched := en.execute(leaf, pq)
		sorted := append([]*element.Element(nil), els...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ES < sorted[j].ES })
		return element.Slice(sorted), touched
	}
	return storage.Runs(en.store), en.store.Len()
}
