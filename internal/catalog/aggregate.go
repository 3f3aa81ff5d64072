package catalog

import (
	"context"

	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/query"
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

// selectAggregate evaluates the GROUP BY WINDOW form of SELECT. Chunks the
// memo cannot answer are folded row at a time where they lie. Results are
// memoized under (relation, "agg:"+fingerprint, epoch) — an insert bumps
// the epoch, so cached windows can never serve stale aggregates.
func (e *Entry) selectAggregate(ctx context.Context, v *readView, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	resultFP, partialFP := q.Fingerprints()
	key := qcache.Key{Rel: e.name, Fingerprint: "agg:" + resultFP, Epoch: v.epoch}
	if hit, ok := e.cache.Get(key); ok {
		ce := hit.(aggCacheEntry)
		e.plans.Record(ce.node.Leaf().Kind, 0)
		return ce.res, ce.node, ce.touched, nil
	}
	res, node, stats, err := e.executeAggregate(ctx, v, q, partialFP)
	if err != nil {
		return nil, nil, 0, err
	}
	touched := int(stats.Rows)
	e.plans.Record(node.Leaf().Kind, touched)
	e.cache.Put(key, aggCacheEntry{res: res, node: node, touched: touched}, aggResultSize(res))
	return res, node, touched, nil
}

// executeAggregate runs the statement against one pinned view, below the
// result cache. Every plan goes in with the chunk memo's
// partials (query.PartialMemo): each chunk's under (relation, "part:"+partial
// fingerprint, store generation, chunk ordinal), each group's under "grp:"
// and its group ordinal — no epoch in the key, which is the point: a write
// leaves every chunk it did not touch valid. Only AS OF, whose answer
// depends on tt⊣ values rather than on which elements are current, goes
// without. The partials are derived state and live only in the cache; with
// the cache off every chunk is folded.
func (e *Entry) executeAggregate(ctx context.Context, v *readView, q *tsql.Query, partialFP string) (*tsql.Result, *plan.Node, vec.ExecStats, error) {
	node := tsql.Compile(q, v.engine.Access())
	spec, err := tsql.BuildAggSpec(q, v.schema)
	if err != nil {
		return nil, nil, vec.ExecStats{}, err
	}
	var memo *query.PartialMemo
	if e.cache != nil && !q.HasAsOf {
		memo = &query.PartialMemo{
			Runs:   e.cache.Chunks(e.name, "part:"+partialFP, v.gen, &e.partialMemo),
			Groups: e.cache.Chunks(e.name, "grp:"+partialFP, v.gen, &e.groupMemo),
		}
	}
	event := v.schema.ValidTime == element.EventStamp
	agg, stats, err := v.engine.AggregateCtx(ctx, node, spec, event, memo)
	if err != nil {
		return nil, nil, stats, err
	}
	e.recordBatch(stats)
	return tsql.AggToResult(q, agg), node, stats, nil
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
func (e *Entry) recordBatch(st vec.ExecStats) {
	e.batchRows.Add(st.Rows)
	e.runsMerged.Add(st.RunsMerged)
	e.groupsMerged.Add(st.GroupsMerged)
	e.runsFolded.Add(st.RunsFolded)
	e.chunksPruned.Add(st.ChunksPruned)
}

// BatchStats reports the entry's lifetime batch-operator counters: rows
// folded, how many full chunks an aggregate answered from a memoized
// partial against folded (and how many of those partials each stood in for
// an aligned group of chunks), how many chunks it passed over unread —
// pruned on a zone map or outside the access path's bounds — and the chunk
// memo's partial and group kinds: lookups that found the entry at the close
// count asked for, and partials built. The memo's lookups are kept out of the query cache's own
// hit and miss counters, which count whole results.
type BatchStats struct {
	Rows          int64
	RunsMerged    int64
	GroupsMerged  int64
	RunsFolded    int64
	ChunksPruned  int64
	PartialHits   int64
	PartialsBuilt int64
	GroupHits     int64
	GroupsBuilt   int64
}

// BatchStats snapshots the entry's batch-operator counters.
func (e *Entry) BatchStats() BatchStats {
	return BatchStats{
		Rows:          e.batchRows.Load(),
		RunsMerged:    e.runsMerged.Load(),
		GroupsMerged:  e.groupsMerged.Load(),
		RunsFolded:    e.runsFolded.Load(),
		ChunksPruned:  e.chunksPruned.Load(),
		PartialHits:   e.partialMemo.Hit.Load(),
		PartialsBuilt: e.partialMemo.Built.Load(),
		GroupHits:     e.groupMemo.Hit.Load(),
		GroupsBuilt:   e.groupMemo.Built.Load(),
	}
}
