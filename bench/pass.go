package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/wire"
)

// checkEvery is how often a read's answer is compared with the reference
// model: every 16th read, after its timestamp is taken. Writes are checked
// always (the stored element must be the one sent), and so are twins.
const checkEvery = 16

// refEvery is the noise protocol's cycle: this many operations, then one
// reference request.
const refEvery = 4

// pass is one execution of a workload against one backend: set-up (create,
// preload, advise, seal, warm-up) and then the op list, with the reference
// model kept beside it.
type pass struct {
	sp  *spec
	be  backend
	ref func() (time.Duration, error)
	m   *model

	// Latencies in microseconds. lat and all hold the measured phase;
	// preBatch and preRef hold the preload's batches and the reference
	// requests interleaved with them.
	lat      [numClasses]series
	all      series
	refLat   series
	preBatch []float64
	preRef   []float64
	// stall holds the op that follows each advisor pass: the foreground
	// cost of background work, which a median hides.
	stall       []float64
	afterAdvise bool

	attempted, failed int
	firstErr          error
	reads, checked    int
	log304            []bool // outcome of each cached read, in order
	prevRows          []aggRow
	sinceRef          int
}

func newPass(sp *spec, be backend, ref func() (time.Duration, error)) *pass {
	return &pass{sp: sp, be: be, ref: ref, m: newModel()}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// fail books a failed op: an error, a refusal or a wrong answer.
func (p *pass) fail(o *op, err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("%s: %w", o.kind, err)
	}
}

// refOnce sends one reference request and returns its latency in µs.
func (p *pass) refOnce() (float64, error) {
	d, err := p.ref()
	if err != nil {
		return 0, fmt.Errorf("reference request: %w", err)
	}
	return us(d), nil
}

// refSetUp books a reference request taken during set-up.
func (p *pass) refSetUp() error {
	d, err := p.refOnce()
	p.preRef = append(p.preRef, d)
	return err
}

// errDiverged stops a pass whose write failed: the model no longer
// describes the server, so nothing after it can be checked.
var errDiverged = errors.New("a write failed; the reference model has diverged")

// preload loads the stamps in batches of 256, one reference request per
// four batches, then runs one advisor pass and seals the result.
func (p *pass) preload(stamps []stamp) error {
	for i, n := 0, 0; i < len(stamps); i, n = i+batchSize, n+1 {
		o := op{kind: opBatch, batch: stamps[i:min(i+batchSize, len(stamps))]}
		p.attempted++
		a, err := p.be.insertBatch(o.batch)
		if err == nil {
			err = p.learnBatch(a, o.batch)
		}
		if err != nil {
			p.fail(&o, err)
			return errDiverged
		}
		if len(o.batch) == batchSize {
			p.preBatch = append(p.preBatch, us(a.dur))
		}
		if n%refEvery == refEvery-1 {
			if err := p.refSetUp(); err != nil {
				return err
			}
		}
	}
	if err := p.be.advise(); err != nil {
		return fmt.Errorf("advise after preload: %w", err)
	}
	if err := p.be.seal(); err != nil {
		return fmt.Errorf("seal after preload: %w", err)
	}
	return nil
}

// run executes ops; measured ones feed the statistics and are interleaved
// with reference requests.
func (p *pass) run(ops []op, measured bool) error {
	for i := range ops {
		if err := p.exec(&ops[i], measured); err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) exec(o *op, measured bool) error {
	if o.kind == opAdvise {
		if err := p.be.advise(); err != nil {
			return fmt.Errorf("advise: %w", err)
		}
		p.afterAdvise = true
		return nil
	}
	p.attempted++
	a, err := p.call(o)
	if err != nil {
		p.fail(o, err)
		if o.kind.class() == classWrite || o.kind == opBatch {
			return errDiverged
		}
	}
	if measured {
		d, at := us(a.dur), len(p.all.us)
		p.lat[o.kind.class()].add(at, d)
		p.all.add(at, d)
		if p.afterAdvise {
			p.stall = append(p.stall, d)
		}
	}
	p.afterAdvise = false
	return p.cadence(measured)
}

// cadence sends the reference requests due after every refEvery-th op. The
// warm-up keeps the cadence too, into set-up's own gauge of the machine's
// speed, but has no use for bursts.
func (p *pass) cadence(measured bool) error {
	if p.sinceRef++; p.sinceRef < refEvery {
		return nil
	}
	p.sinceRef = 0
	if !measured {
		return p.refSetUp()
	}
	for i := 0; i < p.sp.refBurst; i++ {
		d, err := p.refOnce()
		if err != nil {
			return err
		}
		p.refLat.add(len(p.all.us), d)
	}
	return nil
}

// call sends one op, folds what came back into the model, and checks it.
func (p *pass) call(o *op) (answer, error) {
	switch o.kind {
	case opInsert:
		a, err := p.be.insert(o.st)
		if err != nil {
			return a, err
		}
		el := a.elems[0]
		if err := checkStored(el, o.st); err != nil {
			return a, err
		}
		p.m.insert(el.ES, o.st.vtLo, o.st.vtHi, o.st.val, el.TTStart)
		return a, nil
	case opBatch:
		a, err := p.be.insertBatch(o.batch)
		if err != nil {
			return a, err
		}
		return a, p.learnBatch(a, o.batch)
	case opDelete:
		a, err := p.be.remove(p.m.vers[o.target].es)
		if err != nil {
			return a, err
		}
		p.m.remove(o.target)
		return a, nil
	case opModify:
		a, err := p.be.modify(p.m.vers[o.target].es, o.st)
		if err != nil {
			return a, err
		}
		el := a.elems[0]
		if err := checkStored(el, o.st); err != nil {
			return a, err
		}
		p.m.modify(o.target, el.ES, o.st.vtLo, o.st.vtHi, o.st.val, el.TTStart)
		return a, nil
	case opAgg:
		a, err := p.be.sel(o.agg.sql(p.sp.rel), o.cached)
		if err != nil {
			return a, err
		}
		p.noteCached(o, a)
		if a.skipped {
			return a, nil
		}
		return a, p.checkAgg(o, a)
	}
	kind, want := p.readPlan(o)
	a, err := p.be.query(kind, o.vt, p.m.ttOf[o.seq], o.cached)
	if err != nil {
		return a, err
	}
	p.noteCached(o, a)
	if a.skipped {
		return a, nil
	}
	if p.reads++; p.reads%checkEvery != 0 {
		return a, nil
	}
	p.checked++
	got := make([]row, len(a.elems))
	for i, el := range a.elems {
		got[i] = rowOf(el)
	}
	sortRows(got)
	if exp := want(); !slices.Equal(got, exp) {
		return a, fmt.Errorf("%s vt=%d seq=%d: got %d element(s), the model has %d, or they differ", kind, o.vt, o.seq, len(got), len(exp))
	}
	return a, nil
}

func (p *pass) noteCached(o *op, a answer) {
	if o.cached {
		p.log304 = append(p.log304, a.notModified)
	}
}

// readPlan maps a read op to the wire's query kind and the model's answer.
func (p *pass) readPlan(o *op) (string, func() []row) {
	switch o.kind {
	case opCurrent:
		return wire.QueryCurrent, p.m.current
	case opTimeslice:
		return wire.QueryTimeslice, func() []row { return p.m.timeslice(o.vt) }
	case opRollback:
		return wire.QueryRollback, func() []row { return p.m.rollback(o.seq) }
	}
	return wire.QueryAsOf, func() []row { return p.m.asOf(o.vt, o.seq) }
}

func (p *pass) learnBatch(a answer, sts []stamp) error {
	if len(a.elems) != len(sts) {
		return fmt.Errorf("batch answered %d element(s) for %d", len(a.elems), len(sts))
	}
	for i, el := range a.elems {
		if err := checkStored(el, sts[i]); err != nil {
			return err
		}
		p.m.insert(el.ES, sts[i].vtLo, sts[i].vtHi, sts[i].val, el.TTStart)
	}
	return nil
}

func (p *pass) checkAgg(o *op, a answer) error {
	got, err := aggRowsOf(a.rows)
	if err != nil {
		return err
	}
	if o.twin && !slices.Equal(got, p.prevRows) {
		return fmt.Errorf("USING ROW twin disagrees with the planner's engine: %d vs %d window(s)", len(got), len(p.prevRows))
	}
	p.prevRows = got
	if p.reads++; p.reads%checkEvery != 0 {
		return nil
	}
	p.checked++
	if exp := p.m.aggregate(o.agg); !slices.Equal(got, exp) {
		return fmt.Errorf("%s: got %d window(s), the model has %d, or they differ", o.agg.sql(p.sp.rel), len(got), len(exp))
	}
	return nil
}

// rowOf projects a wire element onto what the model compares.
func rowOf(el wire.Element) row {
	r := row{es: el.ES}
	switch {
	case el.VT.Event != nil:
		r.vtLo, r.vtHi = *el.VT.Event, *el.VT.Event+1
	case el.VT.Start != nil && el.VT.End != nil:
		r.vtLo, r.vtHi = *el.VT.Start, *el.VT.End
	}
	if len(el.Varying) == 1 {
		r.val = el.Varying[0].Int
	}
	return r
}

// checkStored holds a write's answer to what was sent.
func checkStored(el wire.Element, st stamp) error {
	if got, want := rowOf(el), (row{el.ES, st.vtLo, st.vtHi, st.val}); got != want || el.ES == 0 || !el.Current {
		return fmt.Errorf("stored element %+v is not the one sent %+v", got, st)
	}
	return nil
}

// aggRowsOf decodes the tabular aggregate answer: win_start, win_end, value.
func aggRowsOf(rows [][]wire.Value) ([]aggRow, error) {
	out := make([]aggRow, len(rows))
	for i, r := range rows {
		if len(r) != 3 || r[0].Kind != "time" || r[1].Kind != "time" {
			return nil, fmt.Errorf("aggregate row %d has an unexpected shape: %+v", i, r)
		}
		out[i] = aggRow{start: r[0].Time, end: r[1].Time}
		switch r[2].Kind {
		case "int":
			out[i].val = r[2].Int
		case "null":
			out[i].null = true
		default:
			return nil, fmt.Errorf("aggregate row %d carries a %s value", i, r[2].Kind)
		}
	}
	return out, nil
}
