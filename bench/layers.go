package main

import (
	"fmt"
	"time"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/tx"
	"repro/internal/vec"
	"repro/internal/wire"
)

// The depth replay's second level. layerBackend runs the same op list a
// third time, against the public functions the catalog composes: the
// relation (stage and commit, with the declared enforcer), the extension
// tracker, the physical store, the planner, the query engine, the result
// cache, tsql and the vec engines. The structures evolve in lockstep with
// the ops, as the server's did, and every call into a layer is timed on
// its own, so a layer's total is the time the op list spent inside it. The
// runner checks this backend's answers against the model like any other:
// a decomposition that computed something else would not be a
// decomposition.
//
// What it leaves out is what only the catalog does — locking, the dedup
// window, epoch publication, the WAL frame and its Merkle leaf. The frame
// costs are replayed separately from the traced run's own log (frames.go);
// the rest is the catalog's self time.
type layerBackend struct {
	sp      *spec
	schema  relation.Schema
	event   bool
	rel     *relation.Relation
	guard   *timingGuard
	tracker *core.Tracker
	store   storage.Store
	engine  *query.Engine
	cache   *qcache.Cache
	epoch   uint64
	layerTimes
	selScratch []int32 // for the filter probe
}

// layerTimes is what the layer replay accumulates; the traced run zeroes it
// between set-up and the measured phase.
type layerTimes struct {
	times map[string]*callStat
	// Counts the storage layer reports per call.
	touched, results   int64
	colRows, rowRows   int64
	batches            int64
	runsSeen, runsSkip int64
	inserted           int64
	compactRuns        int64
}

func newLayerBackend(sp *spec) *layerBackend {
	return &layerBackend{sp: sp, layerTimes: layerTimes{times: map[string]*callStat{}}, cache: qcache.New(32 << 20)}
}

func (b *layerBackend) book(name string, d time.Duration) {
	cs := b.times[name]
	if cs == nil {
		cs = &callStat{}
		b.times[name] = cs
	}
	cs.total += d
	cs.n++
}

// timingGuard wraps the declared enforcer to time it apart from the
// relation's own staging.
type timingGuard struct {
	inner relation.Guard
	spent time.Duration
}

func (g *timingGuard) CheckInsert(r *relation.Relation, e *element.Element) error {
	start := time.Now()
	err := g.inner.CheckInsert(r, e)
	g.spent += time.Since(start)
	return err
}

func (g *timingGuard) CheckDelete(r *relation.Relation, e *element.Element, tt chronon.Chronon) error {
	start := time.Now()
	err := g.inner.CheckDelete(r, e, tt)
	g.spent += time.Since(start)
	return err
}

func (g *timingGuard) Applied(r *relation.Relation, op relation.Op, e *element.Element, tt chronon.Chronon) {
	start := time.Now()
	g.inner.Applied(r, op, e, tt)
	g.spent += time.Since(start)
}

func (b *layerBackend) create() error {
	schema, err := relationSchema(b.sp).ToSchema()
	if err != nil {
		return err
	}
	b.schema, b.event = schema, schema.ValidTime == element.EventStamp
	b.rel = relation.New(schema, tx.NewSystemClock())
	var classes []core.Class
	if b.sp.declare {
		classes = []core.Class{core.GloballyNonDecreasingEvents}
		b.guard = &timingGuard{inner: constraint.NewEnforcer(constraint.PerRelation,
			constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()})}
		b.rel.AddGuard(b.guard)
	}
	b.tracker = core.NewTracker(schema.ValidTime, schema.Granularity)
	b.store = storage.Advise(classes, schema.ValidTime).New()
	b.engine = query.New(b.store, classes)
	return nil
}

// stageCommit is the relation's share of an insert, the enforcer's share
// booked apart.
func (b *layerBackend) stageCommit(ins relation.Insertion) (*element.Element, error) {
	var before time.Duration
	if b.guard != nil {
		before = b.guard.spent
	}
	start := time.Now()
	el, err := b.rel.StageInsert(ins)
	if err == nil {
		b.rel.CommitInsert(el)
	}
	d := time.Since(start)
	if b.guard != nil {
		enforce := b.guard.spent - before
		b.book("relation.enforce", enforce)
		d -= enforce
	}
	b.book("relation.stage_commit", d)
	return el, err
}

func (b *layerBackend) apply(el *element.Element) error {
	start := time.Now()
	b.tracker.Observe(el)
	b.book("core.track", time.Since(start))
	start = time.Now()
	err := b.store.Insert(el)
	b.book("storage.insert", time.Since(start))
	b.inserted++
	return err
}

func (b *layerBackend) insert(st stamp) (a answer, err error) {
	start := time.Now()
	el, err := b.stageCommit(b.sp.insertion(st))
	if err == nil {
		err = b.apply(el)
	}
	b.epoch++
	a.dur = time.Since(start)
	if err == nil {
		a.elems = []wire.Element{wire.FromElement(el)}
	}
	return
}

func (b *layerBackend) insertBatch(sts []stamp) (a answer, err error) {
	// All insertions first, then all stagings, as Entry.InsertBatch is
	// handed them: elements allocated back to back sit denser in memory
	// than elements allocated between their own requests, and every fold
	// that dereferences them afterwards pays for the difference.
	ins := make([]relation.Insertion, len(sts))
	for i, st := range sts {
		ins[i] = b.sp.insertion(st)
	}
	start := time.Now()
	els := make([]*element.Element, len(sts))
	for i := range ins {
		if els[i], err = b.stageCommit(ins[i]); err != nil {
			return
		}
	}
	for _, el := range els {
		if err = b.apply(el); err != nil {
			return
		}
	}
	b.epoch++
	a.dur = time.Since(start)
	a.elems = wire.FromElements(els)
	return
}

// closeVersion is a logical delete at the relation and the store.
func (b *layerBackend) closeVersion(es uint64) error {
	start := time.Now()
	old, tt, err := b.rel.StageDelete(surrogate.Surrogate(es))
	if err != nil {
		return err
	}
	clone := b.rel.CommitDelete(old, tt)
	b.book("relation.delete", time.Since(start))
	start = time.Now()
	b.store.Replace(old, clone)
	b.book("storage.replace", time.Since(start))
	return nil
}

func (b *layerBackend) remove(es uint64) (a answer, err error) {
	start := time.Now()
	err = b.closeVersion(es)
	b.epoch++
	a.dur = time.Since(start)
	return
}

func (b *layerBackend) modify(es uint64, st stamp) (a answer, err error) {
	ins := b.sp.insertion(st)
	start := time.Now()
	t0 := time.Now()
	old, repl, tt, err := b.rel.StageModify(surrogate.Surrogate(es), ins.VT, ins.Varying)
	if err != nil {
		return
	}
	clone := b.rel.CommitDelete(old, tt)
	b.rel.CommitInsert(repl)
	b.book("relation.modify", time.Since(t0))
	t0 = time.Now()
	b.store.Replace(old, clone)
	b.book("storage.replace", time.Since(t0))
	err = b.apply(repl)
	b.epoch++
	a.dur = time.Since(start)
	a.elems = []wire.Element{wire.FromElement(repl)}
	return
}

// cached is the catalog's memoization around a read: one Get, and on a
// miss the computation and one Put.
func (b *layerBackend) cached(fp string, size func(any) int64, compute func() (any, error)) (any, error) {
	key := qcache.Key{Rel: b.sp.rel, Fingerprint: fp, Epoch: b.epoch}
	start := time.Now()
	hit, ok := b.cache.Get(key)
	b.book("qcache.get", time.Since(start))
	if ok {
		return hit, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	sz := size(v)
	start = time.Now()
	b.cache.Put(key, v, sz)
	b.book("qcache.put", time.Since(start))
	return v, nil
}

func (b *layerBackend) query(kind string, vt, tt int64, _ bool) (a answer, err error) {
	start := time.Now()
	fp := fmt.Sprintf("%s:%d:%d", kind, vt, tt)
	v, err := b.cached(fp, func(v any) int64 { return 64 + 192*int64(len(v.([]*element.Element))) },
		func() (any, error) { return b.read(kind, chronon.Chronon(vt), chronon.Chronon(tt)), nil })
	a.dur = time.Since(start)
	if err != nil {
		return
	}
	a.elems = wire.FromElements(v.([]*element.Element))
	return
}

// read answers one element query the way the engine does — plan, then the
// planned access path on the store — with each step timed on its own.
func (b *layerBackend) read(kind string, vt, tt chronon.Chronon) []*element.Element {
	var pq plan.Query
	switch kind {
	case wire.QueryCurrent:
		pq = plan.Query{Kind: plan.QCurrent}
	case wire.QueryTimeslice:
		pq = plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1}
	case wire.QueryRollback:
		pq = plan.Query{Kind: plan.QRollback, TT: int64(tt)}
	default:
		pq = plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), TT: int64(tt)}
	}
	engineStart := time.Now()
	access := b.engine.Access()
	start := time.Now()
	plan.Build(access, pq) // timed for its cost; the store call below follows the same choice
	build := time.Since(start)
	b.book("plan.build", build)

	var (
		els     []*element.Element
		touched int
		inStore time.Duration
	)
	start = time.Now()
	switch {
	case pq.Kind == plan.QAsOf:
		// No organization serves both dimensions: the catalog scans its
		// pinned view, which is the relation's version list.
		for _, el := range b.rel.Versions() {
			if el.PresentAt(tt) && el.ValidAt(vt) {
				els = append(els, el)
			}
		}
		touched = b.rel.Len()
		b.book("catalog.asof_scan", time.Since(start))
	case pq.Kind == plan.QCurrent:
		touched = b.store.Scan(func(e *element.Element) bool {
			if e.Current() {
				els = append(els, e)
			}
			return true
		})
		inStore = time.Since(start)
		b.book("storage.scan", inStore)
	case pq.Kind == plan.QRollback:
		els, touched = b.store.Rollback(tt)
		inStore = time.Since(start)
		b.book("storage.rollback", inStore)
	default:
		// The engine serves a time-slice as the one-chronon range, by
		// binary search or by scan as the organization allows.
		els, touched = b.store.VTRange(vt, vt+1)
		inStore = time.Since(start)
		b.book("storage.timeslice", inStore)
	}
	if pq.Kind != plan.QAsOf {
		b.touched += int64(touched)
		b.results += int64(len(els))
		// The engine's own share: reading the store's capabilities and
		// wrapping the result, around the planner and the store.
		b.book("query.engine_self", time.Since(engineStart)-build-inStore)
	}
	return els
}

func (b *layerBackend) sel(sql string, _ bool) (a answer, err error) {
	start := time.Now()
	q, err := tsql.Parse(sql)
	b.book("tsql.parse", time.Since(start))
	if err != nil {
		return
	}
	v, err := b.cached("agg:"+q.Fingerprint(), func(v any) int64 { return 96 + 104*int64(len(v.(*tsql.Result).Rows)) },
		func() (any, error) { return b.aggregate(q) })
	a.dur = time.Since(start)
	if err != nil {
		return
	}
	res := v.(*tsql.Result)
	a.rows = make([][]wire.Value, len(res.Rows))
	for i, r := range res.Rows {
		a.rows[i] = wire.FromValues(r)
	}
	return
}

// aggregate mirrors query.Engine.AggregateCtx with the reader and the fold
// timed apart: the storage layer produces batches or candidates, the vec
// layer folds them.
func (b *layerBackend) aggregate(q *tsql.Query) (*tsql.Result, error) {
	start := time.Now()
	node := tsql.Compile(q, b.engine.Access())
	spec, err := tsql.BuildAggSpec(q, b.schema)
	b.book("tsql.compile", time.Since(start))
	if err != nil {
		return nil, err
	}
	var agg *vec.AggResult
	leaf := node.Leaf()
	if leaf.Kind == plan.ColumnarScan {
		reader := func() *storage.BatchReader {
			r := storage.NewBatchReader(b.store, b.event)
			if spec.Filter.HasVT {
				r.SetVTWindow(chronon.Chronon(spec.Filter.VTLo), chronon.Chronon(spec.Filter.VTHi))
			}
			r.SetCurrentOnly()
			return r
		}
		// The engine's loop, timed as one piece: a timer pair per batch
		// would cost a tenth of what a batch costs.
		col, err := vec.NewColAgg(spec)
		if err != nil {
			return nil, err
		}
		var (
			batch vec.Batch
			stats vec.ExecStats
		)
		t0 := time.Now()
		r := reader()
		for {
			ok, err := r.Next(&batch)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := col.Consume(&batch, &stats); err != nil {
				return nil, err
			}
		}
		agg, err = col.Result()
		whole := time.Since(t0)
		if err != nil {
			return nil, err
		}
		// The same batches read again and not folded: the reader's share.
		// The first of them also times the filter once, on its own.
		t0 = time.Now()
		r2 := reader()
		first := true
		var filtering time.Duration
		for {
			ok, err := r2.Next(&batch)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if first {
				first = false
				f0 := time.Now()
				b.selScratch = spec.Filter.Apply(&batch, b.selScratch[:0])
				filtering = time.Since(f0)
				b.book("vec.filter", filtering)
			}
		}
		reading := time.Since(t0) - filtering
		b.book("storage.batchreader", reading)
		b.book("vec.colagg", max(whole-reading, 0))
		b.colRows += stats.Rows
		b.batches += stats.Batches
		_, runs := storage.SealedInfo(b.store)
		b.runsSeen += int64(runs)
		b.runsSkip += int64(r.Skipped())
	} else {
		t0 := time.Now()
		var cands []*element.Element
		if leaf.Kind == plan.VTBinarySearch {
			pq := tsql.PlanQuery(q)
			cands, _ = b.store.VTRange(chronon.Chronon(pq.VTLo), chronon.Chronon(pq.VTHi))
		} else {
			cands = storage.Elements(b.store)
		}
		b.book("storage.vtrange", time.Since(t0))
		t0 = time.Now()
		agg, err = vec.RowAggregate(bg, spec, cands)
		b.book("vec.rowagg", time.Since(t0))
		if err != nil {
			return nil, err
		}
		b.rowRows += int64(len(cands))
	}
	return tsql.AggToResult(q, agg), nil
}

// advise is the advisor pass's storage half: seal the stable prefix of a
// vt-ordered log.
func (b *layerBackend) advise() error { return b.seal() }

func (b *layerBackend) seal() error {
	c, ok := b.store.(storage.Compacter)
	if !ok || b.store.Kind() != storage.VTOrdered {
		return nil
	}
	start := time.Now()
	n := c.Compact()
	b.book("storage.compact", time.Since(start))
	b.compactRuns += int64(n / vec.BatchSize)
	return nil
}
