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

// batchCheckEvery is how many units the aggregate loop consumes between
// cooperative cancellation checks.
const batchCheckEvery = 8

// AggregateCtx executes a compiled window-aggregate plan. The scan leaves —
// the ColumnarScan the planner (or a USING hint) chose, and the row
// engine's FullScan — run the one unit loop below; the row engine's
// candidate-slice leaves fold what their access path returns. Every
// execution folds elements in arrival (ES) order, so floating-point
// accumulation is bit-identical across the engines — the invariant the
// differential harness asserts against vec.RowAggregateRuns, the
// definition. pq is the planner's view of the query (for access-path entry
// on the row side), event whether the relation is event-stamped, and the
// returned stats feed the batch counters. memo, when not nil, lets the unit
// loop merge the partials of full chunks folded before instead of folding
// them again (partials.go); nil folds every chunk.
func (en *Engine) AggregateCtx(ctx context.Context, node *plan.Node, pq plan.Query, spec *vec.Spec, event bool, memo *PartialMemo) (*vec.AggResult, vec.ExecStats, error) {
	var stats vec.ExecStats
	var res *vec.AggResult
	var err error
	switch leaf := node.Leaf(); leaf.Kind {
	case plan.TTWindowPushdown, plan.VTBinarySearch, plan.BTreeIndexSeek:
		runs, touched := en.aggregateCandidates(leaf, pq)
		stats.Rows = int64(touched)
		res, err = vec.RowAggregateRuns(ctx, spec, runs)
	default:
		res, err = en.aggregateUnits(ctx, spec, event, leaf.Kind == plan.ColumnarScan, memo, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	en.record(node, int(stats.Rows))
	return res, stats, nil
}

// aggregateUnits is both engines' loop: one unit of the reader at a time,
// in arrival order. A stable chunk whose partial is memoized at its current
// close count is merged; every other unit is folded — a stable chunk with
// no valid partial by way of PartialMemo.learn, the one place a partial
// comes to exist. The engine decides only how a unit is folded: decoded
// into a batch and consumed by columns, or consumed row at a time where it
// lies. Whenever a partial cannot stand in for folding the chunk into the
// running state, the chunk is folded after all, so values and errors are
// those of the plain fold.
func (en *Engine) aggregateUnits(ctx context.Context, spec *vec.Spec, event, columnar bool, memo *PartialMemo, stats *vec.ExecStats) (*vec.AggResult, error) {
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
	var b *vec.Batch // what the columnar engine decodes the unit into
	if columnar {
		b = new(vec.Batch)
	}
	fold := func(into *vec.ColAgg, st *vec.ExecStats) error {
		if columnar {
			return into.Consume(b, st)
		}
		return into.ConsumeRows(r.Rows(), st)
	}
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
		if columnar {
			if err := r.Load(b); err != nil {
				return nil, err
			}
		}
		if u.Run >= 0 {
			stats.RunsFolded++
		}
		if learn && memo.learn(spec, u, fold, agg, stats) {
			continue
		}
		if err := fold(agg, stats); err != nil {
			return nil, err
		}
	}
	return agg.Result()
}

// aggregateCandidates materializes the row engine's input through one of
// the planned candidate-slice access paths. The spec re-applies every
// predicate, so a superset is always sound; what matters is arrival (ES)
// order, which the log-backed paths yield naturally and the vt-index path
// restores by sorting — float sums must accumulate in the same order as
// the unit loop's chunk stream.
func (en *Engine) aggregateCandidates(leaf *plan.Node, pq plan.Query) (element.Runs, int) {
	els, _, touched := en.execute(leaf, pq)
	if leaf.Kind == plan.BTreeIndexSeek {
		els = append([]*element.Element(nil), els...)
		sort.Slice(els, func(i, j int) bool { return els[i].ES < els[j].ES })
	}
	return element.Slice(els), touched
}
