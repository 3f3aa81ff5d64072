package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wire"
)

// answer is what one op came back with, in the wire vocabulary whichever
// path produced it.
type answer struct {
	dur         time.Duration // the call alone; conversions happen after the clock stops
	elems       []wire.Element
	rows        [][]wire.Value // aggregate windows
	notModified bool           // answered 304 from the client's copy
	// skipped marks a replayed request that never reached the layer being
	// replayed (a 304 stops in the handler); it has no answer to check.
	skipped bool
}

// backend is a path to the system under test. The same runner drives the
// typed client over HTTP (the measured and traced runs) and catalog.Entry
// directly (the depth replay), so both see the same ops and the same checks.
type backend interface {
	// create makes the workload's relation and declares its specialization.
	create() error
	insert(st stamp) (answer, error)
	insertBatch(sts []stamp) (answer, error)
	remove(es uint64) (answer, error)
	modify(es uint64, st stamp) (answer, error)
	query(kind string, vt, tt int64, cached bool) (answer, error)
	sel(sql string, cached bool) (answer, error)
	// advise runs one advisor pass: re-advise, migrate, and compact the
	// relations whose organization seals runs.
	advise() error
	// seal compacts whatever the thresholds say; set-up ends with it.
	seal() error
}

func relationSchema(sp *spec) wire.Schema {
	vt := "event"
	if sp.interval {
		vt = "interval"
	}
	return wire.Schema{
		Name: sp.rel, ValidTime: vt, Granularity: 1,
		Invariant: []wire.Column{{Name: "id", Type: "string"}},
		Varying:   []wire.Column{{Name: "value", Type: "int"}},
	}
}

func (sp *spec) vt(st stamp) wire.Timestamp {
	if sp.interval {
		return wire.SpanOf(st.vtLo, st.vtHi)
	}
	return wire.EventAt(st.vtLo)
}

func (sp *spec) insertRequest(st stamp) wire.InsertRequest {
	return wire.InsertRequest{
		VT:        sp.vt(st),
		Invariant: []wire.Value{wire.String("s1")},
		Varying:   []wire.Value{wire.Int(st.val)},
	}
}

// ---- HTTP: the typed client, one keep-alive connection

type httpBackend struct {
	sp  *spec
	cli *client.Client
	ctl *control
	tr  *tracer // nil outside the traced pass
	// deduped counts batch elements answered from the server's dedup
	// window: zero unless a request was sent twice.
	deduped int
}

var bg = context.Background()

func (b *httpBackend) timed(name string, call func() error) (time.Duration, error) {
	done := b.tr.span(name)
	start := time.Now()
	err := call()
	dur := time.Since(start)
	done()
	return dur, err
}

// nonDecreasing is the declaration that licenses the vt-ordered log.
func nonDecreasing() constraint.Descriptor {
	d, _ := constraint.Describe(constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)
	return d
}

func (b *httpBackend) create() error {
	if _, err := b.cli.Create(bg, relationSchema(b.sp)); err != nil {
		return err
	}
	if !b.sp.declare {
		return nil
	}
	_, err := b.cli.Declare(bg, b.sp.rel, wire.FromDescriptor(nonDecreasing()))
	return err
}

func (b *httpBackend) insert(st stamp) (a answer, err error) {
	var el wire.Element
	a.dur, err = b.timed("client.write", func() (err error) {
		el, err = b.cli.Insert(bg, b.sp.rel, b.sp.insertRequest(st))
		return
	})
	a.elems = []wire.Element{el}
	return
}

func (b *httpBackend) insertBatch(sts []stamp) (a answer, err error) {
	reqs := make([]wire.InsertRequest, len(sts))
	for i, st := range sts {
		reqs[i] = b.sp.insertRequest(st)
	}
	var resp wire.BatchInsertResponse
	a.dur, err = b.timed("client.batch", func() (err error) {
		resp, err = b.cli.InsertBatch(bg, b.sp.rel, reqs, true)
		return
	})
	if err != nil {
		return
	}
	b.deduped += resp.Deduped
	if resp.Stored != len(sts) {
		return a, fmt.Errorf("batch stored %d of %d (deduped %d, rejected %d)", resp.Stored, len(sts), resp.Deduped, resp.Rejected)
	}
	a.elems = make([]wire.Element, len(resp.Items))
	for i, it := range resp.Items {
		a.elems[i] = *it.Element
	}
	return
}

func (b *httpBackend) remove(es uint64) (a answer, err error) {
	a.dur, err = b.timed("client.write", func() error { return b.cli.Delete(bg, b.sp.rel, es) })
	return
}

func (b *httpBackend) modify(es uint64, st stamp) (a answer, err error) {
	var el wire.Element
	a.dur, err = b.timed("client.write", func() (err error) {
		el, err = b.cli.Modify(bg, b.sp.rel, es, b.sp.vt(st), []wire.Value{wire.Int(st.val)})
		return
	})
	a.elems = []wire.Element{el}
	return
}

func (b *httpBackend) query(kind string, vt, tt int64, cached bool) (a answer, err error) {
	req := wire.QueryRequest{Kind: kind, VT: vt, TT: tt}
	var resp wire.QueryResponse
	a.dur, err = b.timed("client.read", func() (err error) {
		if cached {
			var cr client.CachedResponse
			cr, err = b.cli.QueryCached(bg, b.sp.rel, req)
			resp, a.notModified = cr.QueryResponse, cr.NotModified
			return
		}
		resp, err = b.cli.Query(bg, b.sp.rel, req)
		return
	})
	a.elems = resp.Elements
	return
}

func (b *httpBackend) sel(sql string, cached bool) (a answer, err error) {
	var resp wire.SelectResponse
	a.dur, err = b.timed("client.agg", func() (err error) {
		if cached {
			var cr client.CachedSelectResponse
			cr, err = b.cli.SelectCached(bg, b.sp.rel, sql)
			resp, a.notModified = cr.SelectResponse, cr.NotModified
			return
		}
		resp, err = b.cli.Select(bg, sql)
		return
	})
	a.rows = resp.Rows
	return
}

func (b *httpBackend) advise() error { return b.ctl.post("/_bench/advise", nil) }
func (b *httpBackend) seal() error   { return b.ctl.post("/_bench/compact", nil) }

// ---- direct: catalog.Entry, the depth replay's first level

// entryBackend calls the public Entry methods the server's handlers call,
// with the same arguments, and times each call on its own.
type entryBackend struct {
	sp   *spec
	cat  *catalog.Catalog
	e    *catalog.Entry
	keys int
	// notModified replays the traced pass's 304s: those requests never
	// reached the catalog, so the replay skips them too.
	notModified func() bool
	entryTimes
}

// entryTimes is what the catalog replay accumulates; the traced run zeroes
// it between set-up and the measured phase.
type entryTimes struct {
	perCall map[string]*callStat
	// parse accumulates tsql.Parse time, which the handler pays before
	// Entry.SelectCtx and which belongs to the tsql layer.
	parse    time.Duration
	parses   int
	elements int // elements carried by timed InsertBatch calls
	// The wire layer's share, replayed beside each call: decoding the
	// request body and building and encoding the response body, as the
	// handler does around the catalog.
	decode, encode time.Duration
	encodedElems   int
}

type callStat struct {
	total time.Duration
	n     int
}

func (b *entryBackend) book(name string, d time.Duration) {
	cs := b.perCall[name]
	if cs == nil {
		cs = &callStat{}
		b.perCall[name] = cs
	}
	cs.total += d
	cs.n++
}

// wireCost times the handler's wire work for one request: the JSON decode
// of req's body into into (unknown fields refused, as the server does) and
// body(), which converts the catalog's answer to its wire form, encoded
// through the server's pooled buffer.
func (b *entryBackend) wireCost(req, into any, body func() any, elems int) {
	raw, _ := json.Marshal(req)
	start := time.Now()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	_ = dec.Decode(into)
	b.decode += time.Since(start)
	start = time.Now()
	buf := wire.GetBuffer()
	_ = json.NewEncoder(buf).Encode(body())
	wire.PutBuffer(buf)
	b.encode += time.Since(start)
	b.encodedElems += elems
}

// key mints an idempotency key of the client's length, so frames weigh
// what they weigh over HTTP.
func (b *entryBackend) key() string {
	b.keys++
	return fmt.Sprintf("%032x", b.keys)
}

// insertion is the engine-side form of insertRequest.
func (sp *spec) insertion(st stamp) relation.Insertion {
	vt := element.EventAt(chronon.Chronon(st.vtLo))
	if sp.interval {
		vt = element.SpanOf(chronon.Chronon(st.vtLo), chronon.Chronon(st.vtHi))
	}
	return relation.Insertion{
		VT:        vt,
		Invariant: []element.Value{element.String_("s1")},
		Varying:   []element.Value{element.Int(st.val)},
	}
}

func (b *entryBackend) create() error {
	schema, err := relationSchema(b.sp).ToSchema()
	if err != nil {
		return err
	}
	if b.e, err = b.cat.Create(schema); err != nil {
		return err
	}
	if !b.sp.declare {
		return nil
	}
	return b.e.Declare([]constraint.Descriptor{nonDecreasing()})
}

func (b *entryBackend) insert(st stamp) (a answer, err error) {
	ins, key := b.sp.insertion(st), b.key()
	start := time.Now()
	el, err := b.e.InsertKeyed(bg, ins, key)
	a.dur = time.Since(start)
	b.book("insert", a.dur)
	if err == nil {
		a.elems = make([]wire.Element, 1)
		b.wireCost(b.sp.insertRequest(st), &wire.InsertRequest{}, func() any {
			a.elems[0] = wire.FromElement(el)
			return wire.ElementResponse{Element: a.elems[0]}
		}, 1)
	}
	return
}

func (b *entryBackend) insertBatch(sts []stamp) (a answer, err error) {
	ins := make([]relation.Insertion, len(sts))
	keys := make([]string, len(sts))
	for i, st := range sts {
		ins[i], keys[i] = b.sp.insertion(st), b.key()
	}
	start := time.Now()
	res, err := b.e.InsertBatch(bg, ins, keys, true)
	a.dur = time.Since(start)
	b.book("insert_batch", a.dur)
	b.elements += len(sts)
	if err != nil {
		return
	}
	reqs := make([]wire.InsertRequest, len(sts))
	for i, st := range sts {
		reqs[i] = b.sp.insertRequest(st)
	}
	a.elems = make([]wire.Element, len(res.Items))
	b.wireCost(wire.BatchInsertRequest{Elements: reqs, Keys: keys, Atomic: true}, &wire.BatchInsertRequest{}, func() any {
		body := wire.BatchInsertResponse{Items: make([]wire.BatchItem, len(res.Items)), Stored: res.Stored, Epoch: res.Epoch}
		for i, it := range res.Items {
			a.elems[i] = wire.FromElement(it.Elem)
			body.Items[i] = wire.BatchItem{Status: it.Status.String(), Element: &a.elems[i]}
		}
		return body
	}, len(res.Items))
	return
}

func (b *entryBackend) remove(es uint64) (a answer, err error) {
	key := b.key()
	start := time.Now()
	err = b.e.DeleteKeyed(bg, surrogate.Surrogate(es), key)
	a.dur = time.Since(start)
	b.book("delete", a.dur)
	b.wireCost(wire.DeleteRequest{ES: es}, &wire.DeleteRequest{}, func() any { return struct{}{} }, 0)
	return
}

func (b *entryBackend) modify(es uint64, st stamp) (a answer, err error) {
	ins, key := b.sp.insertion(st), b.key()
	start := time.Now()
	el, err := b.e.ModifyKeyed(bg, surrogate.Surrogate(es), ins.VT, ins.Varying, key)
	a.dur = time.Since(start)
	b.book("modify", a.dur)
	if err == nil {
		a.elems = make([]wire.Element, 1)
		b.wireCost(wire.ModifyRequest{ES: es, VT: b.sp.vt(st), Varying: []wire.Value{wire.Int(st.val)}}, &wire.ModifyRequest{}, func() any {
			a.elems[0] = wire.FromElement(el)
			return wire.ElementResponse{Element: a.elems[0]}
		}, 2)
	}
	return
}

func (b *entryBackend) query(kind string, vt, tt int64, cached bool) (a answer, err error) {
	if cached && b.notModified() {
		a.notModified, a.skipped = true, true
		return
	}
	var res catalog.QueryResult
	start := time.Now()
	switch kind {
	case wire.QueryCurrent:
		res, err = b.e.CurrentCtx(bg)
	case wire.QueryTimeslice:
		res, err = b.e.TimesliceCtx(bg, chronon.Chronon(vt))
	case wire.QueryRollback:
		res, err = b.e.RollbackCtx(bg, chronon.Chronon(tt))
	default:
		res, err = b.e.TimesliceAsOfCtx(bg, chronon.Chronon(vt), chronon.Chronon(tt))
	}
	a.dur = time.Since(start)
	b.book(kind, a.dur)
	if err != nil {
		return
	}
	b.wireCost(wire.QueryRequest{Kind: kind, VT: vt, TT: tt}, &wire.QueryRequest{}, func() any {
		a.elems = wire.FromElements(res.Elements)
		return wire.QueryResponse{Elements: a.elems, Plan: res.Plan, PlanNode: wire.FromPlanNode(res.Node),
			Touched: res.Touched, Epoch: res.Epoch}
	}, len(res.Elements))
	return
}

func (b *entryBackend) sel(sql string, cached bool) (a answer, err error) {
	if cached && b.notModified() {
		a.notModified, a.skipped = true, true
		return
	}
	start := time.Now()
	q, err := tsql.Parse(sql)
	parsed := time.Since(start)
	b.parse += parsed
	b.parses++
	if err != nil {
		return
	}
	start = time.Now()
	res, node, touched, err := b.e.SelectCtx(bg, q)
	a.dur = time.Since(start)
	b.book("select_agg", a.dur)
	a.dur += parsed
	if err != nil {
		return
	}
	b.wireCost(wire.SelectRequest{Query: sql}, &wire.SelectRequest{}, func() any {
		a.rows = make([][]wire.Value, len(res.Rows))
		for i, r := range res.Rows {
			a.rows[i] = wire.FromValues(r)
		}
		return wire.SelectResponse{Columns: res.Columns, Rows: a.rows, Plan: wire.FromPlanNode(node), Touched: touched}
	}, len(res.Rows))
	return
}

func (b *entryBackend) advise() error {
	start := time.Now()
	_, err := b.cat.AdvisePass(catalog.DefaultAdvisorConfig())
	b.book("advise_pass", time.Since(start))
	return err
}

func (b *entryBackend) seal() error {
	if b.e.Physical().Org != storage.VTOrdered {
		return nil
	}
	start := time.Now()
	b.e.Compact()
	b.book("compact", time.Since(start))
	return nil
}
