package catalog

import (
	"context"
	"strconv"

	"repro/internal/element"
	"repro/internal/plan"
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
// memoized under (relation, "agg:"+fingerprint) with the epoch they were
// computed at, and served at a later epoch only when no change since meets
// the statement's footprint (tsql.PlanQuery): a write outside its clamp,
// or stamped after its AS OF, leaves the windows as they were. When one
// does meet it, the answer is rebuilt from the cells kept at an earlier
// epoch where they can be (answerAggregate), and computed afresh where not.
func (e *Entry) selectAggregate(ctx context.Context, v *readView, q *tsql.Query) (*tsql.Result, *plan.Node, int, error) {
	resultFP, partialFP := q.Fingerprints()
	fp := "agg:" + resultFP
	earlier, ok := e.cached(v, fp, tsql.PlanQuery(q))
	if ok {
		ce := earlier.(aggCacheEntry)
		e.plans.Record(ce.node.Leaf().Kind, 0)
		return ce.res, ce.node, ce.touched, nil
	}
	x, err := e.compileAggregate(v, q, partialFP)
	if err != nil {
		return nil, nil, 0, err
	}
	res, stats, err := e.answerAggregate(ctx, v, x, earlier != nil)
	e.recordBatch(stats)
	if err != nil {
		return nil, nil, 0, err
	}
	result := tsql.AggToResult(q, res)
	touched := int(stats.Rows)
	e.plans.Record(x.node.Leaf().Kind, touched)
	e.cache.Record(e.name, fp, v.epoch, aggCacheEntry{res: result, node: x.node, touched: touched}, aggResultSize(result))
	return result, x.node, touched, nil
}

// aggExec is one aggregate statement compiled against one pinned view: its
// plan, its spec, the chunk memo it goes in with, and the key its cells are
// kept under — empty when they are not kept.
type aggExec struct {
	node  *plan.Node
	spec  *vec.Spec
	memo  *query.PartialMemo
	cells string
	event bool
}

// compileAggregate readies q for execution on v. Every plan goes in with
// the chunk memo's partials (query.PartialMemo): each chunk's under
// (relation, "part:"+partial fingerprint, store generation, chunk ordinal),
// each group's under "grp:" and its group ordinal — no epoch in the key,
// which is the point: a write leaves every chunk it did not touch valid.
// The answer's cells — every window's, before the window mode — are kept
// under "cells:" with the partial fingerprint and the clamp, so every mode
// over the same width, aggregates and predicate shares them. Only AS OF,
// whose answer depends on tt⊣ values rather than on which elements are
// current, goes without either. Both are derived state and live only in the
// cache; with the cache off every chunk is folded.
func (e *Entry) compileAggregate(v *readView, q *tsql.Query, partialFP string) (aggExec, error) {
	x := aggExec{node: tsql.Compile(q, v.engine.Access()), event: v.schema.ValidTime == element.EventStamp}
	var err error
	if x.spec, err = tsql.BuildAggSpec(q, v.schema); err != nil {
		return x, err
	}
	if e.cache != nil && !q.HasAsOf {
		x.memo = &query.PartialMemo{
			Runs:   e.cache.Chunks(e.name, "part:"+partialFP, v.gen, &e.partialMemo),
			Groups: e.cache.Chunks(e.name, "grp:"+partialFP, v.gen, &e.groupMemo),
		}
		x.cells = cellsKey(partialFP, x.spec.Filter)
	}
	return x, nil
}

// cellsKey names the cells of the statements whose partial fingerprint is
// partialFP under the valid-time clamp f.
func cellsKey(partialFP string, f vec.Filter) string {
	b := make([]byte, 0, len("cells:")+len(partialFP)+48)
	b = append(append(b, "cells:"...), partialFP...)
	if f.HasVT {
		b = strconv.AppendInt(append(b, ";clamp="...), f.VTLo, 10)
		b = strconv.AppendInt(append(b, ','), f.VTHi, 10)
	}
	return string(b)
}

// executeAggregate runs the statement against one pinned view, below the
// result cache: the whole chunk loop, every window folded.
func (e *Entry) executeAggregate(ctx context.Context, v *readView, q *tsql.Query, partialFP string) (*tsql.Result, *plan.Node, vec.ExecStats, error) {
	x, err := e.compileAggregate(v, q, partialFP)
	if err != nil {
		return nil, nil, vec.ExecStats{}, err
	}
	res, stats, err := e.foldAggregate(ctx, v, x)
	e.recordBatch(stats)
	if err != nil {
		return nil, nil, stats, err
	}
	return tsql.AggToResult(q, res), x.node, stats, nil
}

// foldAggregate folds every window of x on v and keeps the cells at v's
// epoch when x keeps them and they are exact.
func (e *Entry) foldAggregate(ctx context.Context, v *readView, x aggExec) (*vec.AggResult, vec.ExecStats, error) {
	if x.cells == "" {
		return v.engine.AggregateCtx(ctx, x.node, x.spec, x.event, x.memo)
	}
	res, cells, stats, err := v.engine.AggregateCells(ctx, x.node, x.spec, x.event, x.memo)
	if cells != nil {
		e.cache.Record(e.name, x.cells, v.epoch, cells, partialSize(cells))
	}
	return res, stats, err
}

// answerAggregate computes x on v below the result cache: rebuilt from the
// cells kept at an earlier epoch (refold), which are then kept at v's,
// where it can be, and by the whole chunk loop where not — no cells kept,
// or refold declined, which decides values and errors as it always has.
// The whole loop keeps the cells of a statement answered before (asked) and
// of one whose cells another window mode kept: a statement asked once, such
// as a clamp that follows the relation's head, keeps none.
func (e *Entry) answerAggregate(ctx context.Context, v *readView, x aggExec, asked bool) (*vec.AggResult, vec.ExecStats, error) {
	if x.cells != "" {
		if kept, at, found := e.cache.Recorded(e.name, x.cells, v.epoch); found {
			res, cells, stats, ok, err := e.refold(ctx, v, x, kept.(*vec.Partial), at)
			if err != nil {
				return nil, stats, err
			}
			if ok {
				e.rebuilt.Add(1)
				if cells != nil && at != v.epoch {
					e.cache.Record(e.name, x.cells, v.epoch, cells, partialSize(cells))
				}
				return res, stats, nil
			}
			asked = true
		}
		if !asked {
			x.cells = ""
		}
	}
	return e.foldAggregate(ctx, v, x)
}

// refold answers x on v from base, the cells of x kept at epoch at: it
// folds again only the windows the changes since can have moved
// (changedWindows) and copies the rest. It returns the answer and the new
// cells (nil when they are not exact); ok is false when the changes are not
// known or not bounded, or the refold failed, and err then is the context's
// only.
func (e *Entry) refold(ctx context.Context, v *readView, x aggExec, base *vec.Partial, at uint64) (*vec.AggResult, *vec.Partial, vec.ExecStats, bool, error) {
	var buf [8]vec.WindowRun
	runs, bounded := e.changedWindows(v, at, x.spec.Filter, x.spec.Width, base.Windows(), buf[:0])
	if !bounded {
		return nil, nil, vec.ExecStats{}, false, nil
	}
	res, cells, stats, err := v.engine.Refold(ctx, x.node, x.spec, x.event, x.memo, base, runs)
	if err != nil {
		return nil, nil, stats, false, ctx.Err()
	}
	return res, cells, stats, true, nil
}

// partialSize approximates kept cells' resident bytes.
func partialSize(p *vec.Partial) int64 { return 32 + p.Bytes() }

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
	e.windowsRefolded.Add(st.WindowsRefolded)
	e.windowsReused.Add(st.WindowsReused)
}

// BatchStats reports the entry's lifetime batch-operator counters: rows
// folded, how many full chunks an aggregate answered from a memoized
// partial against folded (and how many of those partials each stood in for
// an aligned group of chunks), how many chunks it passed over unread —
// pruned on a zone map or outside the access path's bounds — how many
// answers were rebuilt from an earlier epoch's cells, and the windows those
// folded again against the windows they copied, and the chunk memo's
// partial and group kinds: lookups that found the entry at the close count
// asked for, and partials built. The memo's lookups are kept out of the
// query cache's own hit and miss counters, which count whole results.
type BatchStats struct {
	Rows            int64
	RunsMerged      int64
	GroupsMerged    int64
	RunsFolded      int64
	ChunksPruned    int64
	Rebuilt         int64
	WindowsRefolded int64
	WindowsReused   int64
	PartialHits     int64
	PartialsBuilt   int64
	GroupHits       int64
	GroupsBuilt     int64
}

// BatchStats snapshots the entry's batch-operator counters.
func (e *Entry) BatchStats() BatchStats {
	return BatchStats{
		Rows:            e.batchRows.Load(),
		RunsMerged:      e.runsMerged.Load(),
		GroupsMerged:    e.groupsMerged.Load(),
		RunsFolded:      e.runsFolded.Load(),
		ChunksPruned:    e.chunksPruned.Load(),
		Rebuilt:         e.rebuilt.Load(),
		WindowsRefolded: e.windowsRefolded.Load(),
		WindowsReused:   e.windowsReused.Load(),
		PartialHits:     e.partialMemo.Hit.Load(),
		PartialsBuilt:   e.partialMemo.Built.Load(),
		GroupHits:       e.groupMemo.Hit.Load(),
		GroupsBuilt:     e.groupMemo.Built.Load(),
	}
}
