package catalog

import (
	"context"

	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/tsql"
	"repro/internal/vec"
)

// aggCacheEntry memoizes an executed window aggregate: the emitted result
// plus the plan that produced it, so cache hits replay the plan metrics
// exactly like the element-read cache does.
type aggCacheEntry struct {
	res     *tsql.Result
	node    *plan.Node
	touched int
}

// selectAggregate evaluates the GROUP BY WINDOW form of SELECT. The
// planner (or the statement's USING hint) chooses between the columnar
// batch engine and the row reference engine; both fold elements in
// arrival order, so the choice never changes the answer. Results are
// memoized under (relation, "agg:"+fingerprint, epoch) — an insert bumps
// the epoch, so cached windows can never serve stale aggregates.
func (e *Entry) selectAggregate(ctx context.Context, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	v := e.view.Load()
	key := qcache.Key{Rel: e.name, Fingerprint: "agg:" + q.Fingerprint(), Epoch: v.epoch}
	if hit, ok := e.cache.Get(key); ok {
		ce := hit.(aggCacheEntry)
		e.plans.Record(ce.node.Leaf().Kind, 0)
		return ce.res, ce.node, ce.touched, nil
	}
	node := tsql.Compile(q, v.engine.Access())
	spec, err := tsql.BuildAggSpec(q, v.schema)
	if err != nil {
		return nil, nil, 0, err
	}
	event := v.schema.ValidTime == element.EventStamp
	agg, stats, err := v.engine.AggregateCtx(ctx, node, tsql.PlanQuery(q), spec, event)
	if err != nil {
		return nil, nil, 0, err
	}
	e.recordBatch(node.Leaf().Kind, stats)
	res, touched := tsql.AggToResult(q, agg), int(stats.Rows)
	e.plans.Record(node.Leaf().Kind, touched)
	e.cache.Put(key, aggCacheEntry{res: res, node: node, touched: touched}, aggResultSize(res))
	return res, node, touched, nil
}

// aggResultSize approximates a cached aggregate's resident bytes, same
// contract as resultSize: scale with the footprint, precision optional.
func aggResultSize(res *tsql.Result) int64 {
	n := int64(96)
	for _, c := range res.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range res.Rows {
		n += 24 + 40*int64(len(row))
	}
	return n
}

// recordBatch accounts one aggregate execution on the entry's
// batch-operator counters.
func (e *Entry) recordBatch(leaf plan.NodeKind, st vec.ExecStats) {
	if leaf == plan.ColumnarScan {
		e.colPicks.Add(1)
		e.batches.Add(st.Batches)
		e.batchRows.Add(st.Rows)
	} else {
		e.rowPicks.Add(1)
	}
}

// BatchStats reports the entry's lifetime batch-operator counters:
// batches and rows consumed by the columnar engine, and how often the
// planner picked each engine for an executed aggregate.
type BatchStats struct {
	Batches       int64
	Rows          int64
	ColumnarPicks int64
	RowPicks      int64
}

// BatchStats snapshots the entry's batch-operator counters.
func (e *Entry) BatchStats() BatchStats {
	return BatchStats{
		Batches:       e.batches.Load(),
		Rows:          e.batchRows.Load(),
		ColumnarPicks: e.colPicks.Load(),
		RowPicks:      e.rowPicks.Load(),
	}
}
