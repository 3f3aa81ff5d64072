package catalog

// The differential test of conditional reads: every relation shape, every
// mutation, every query shape, validators held across steps the way a client
// holds them — the body of the epoch it was computed at, the validator of the
// last revalidation — on a primary and on a follower fed its log. A 304 must
// hand back what a recomputation at the current epoch answers, and every
// "changed" must be explained by a change, summarized independently from what
// the step did, that meets the query's footprint. The same holds for the
// result cache, which serves an answer across epochs by the same walk: every
// answer the catalog gives, cached or not, is the definition's on the view it
// pinned.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/refmodel"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// backwardClock steps back every seventh transaction; the relation stamps
// past its last stamp anyway, so history stays in transaction-time order.
type backwardClock struct {
	now chronon.Chronon
	n   int
}

func (c *backwardClock) Next() chronon.Chronon {
	if c.n++; c.n%7 == 0 {
		c.now -= 35
	} else {
		c.now += 10
	}
	return c.now
}
func (c *backwardClock) Now() chronon.Chronon { return c.now }

// stepModel is what the test knows one publish changed: everything, or the
// least stamp and the valid-time hull [lo, last] of the records it wrote.
type stepModel struct {
	everything bool
	noted      bool
	minTT      int64
	lo, last   int64
}

func (m *stepModel) add(tt chronon.Chronon, vt element.Timestamp) {
	lo, last := int64(vt.Start()), int64(vt.End())
	if !vt.IsEvent() {
		last--
	}
	if !m.noted {
		m.noted, m.minTT, m.lo, m.last = true, int64(tt), lo, last
		return
	}
	m.minTT, m.lo, m.last = min(m.minTT, int64(tt)), min(m.lo, lo), max(m.last, last)
}

func (m *stepModel) union(o stepModel) {
	switch {
	case o.everything:
		m.everything = true
	case !o.noted:
	case !m.noted:
		m.noted, m.minTT, m.lo, m.last = true, o.minTT, o.lo, o.last
	default:
		m.minTT, m.lo, m.last = min(m.minTT, o.minTT), min(m.lo, o.lo), max(m.last, o.last)
	}
}

// sees is the footprint rule restated over the model: a rollback or as-of at
// tt sees changes stamped at or before tt, a time-slice one valid at its
// instant, a vt-range one valid in its window, the current state all.
func (m stepModel) sees(fp plan.Query) bool {
	if m.everything {
		return true
	}
	if !m.noted {
		return false
	}
	switch fp.Kind {
	case plan.QRollback, plan.QAsOf:
		return m.minTT <= fp.TT
	case plan.QTimeslice:
		return m.lo <= fp.VTLo && fp.VTLo <= m.last
	case plan.QVTRange:
		return m.lo < fp.VTHi && fp.VTLo <= m.last
	}
	return true
}

// probe is one query a client keeps asking: its footprint, its answer
// through the catalog (result cache, memo and planner included) with the
// epoch of the view it came from, and its answer by definition over a pinned
// view. Answers are rendered as strings: an element answer as its elements'
// encodings, tt⊣ included — a close moves the tt⊣ a rollback or as-of answer
// prints for the version it closes, so it must meet their footprint.
type probe struct {
	name   string
	fp     plan.Query
	answer func(e *Entry) (string, uint64)
	oracle func(v *readView) string
}

// held is a probe's client-side state: the body and the validator's epoch.
type held struct {
	body  string
	epoch uint64
	ok    bool
}

func elementKeys(t testing.TB, els []*element.Element) string {
	keys := make([]string, len(els))
	for i, el := range els {
		b, err := wire.AppendElement(nil, el)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// defineView answers a query by its definition over a plain scan of the
// pinned view's store.
func defineView(t testing.TB, v *readView, defined func([]*element.Element) []*element.Element) string {
	return elementKeys(t, defined(storage.Elements(v.engine.Store())))
}

// probesFor builds the query palette of one relation: the four query kinds,
// row SELECTs under WHEN AT, DURING and (on intervals) an Allen relation,
// with and without AS OF, and clamped and unclamped tumbling, rolling and
// cumulative window aggregates, with and without AS OF. Instants, clamp
// bounds and windows' widths come from vts, transaction times from tts: the
// sweep draws them from where its writes land, so that a change falls on a
// footprint's very edge.
func probesFor(t testing.TB, e *Entry, rng *rand.Rand, vts, tts []int64) []probe {
	rel := e.Name()
	pick := func(from []int64) int64 { return from[rng.Intn(len(from))] }
	ctx := context.Background()
	var ps []probe
	kind := func(name string, fp plan.Query, defined func([]*element.Element) []*element.Element) {
		ps = append(ps, probe{name: name, fp: fp,
			answer: func(e *Entry) (string, uint64) {
				r, _ := answerCtx(ctx, e, fp)
				// The body as the server sends it — spliced from chunk images
				// named at the view the answer is served on — is the body the
				// elements encode to.
				spliced, err := wire.QueryBody{Answer: *r.Answer(), Images: r.Images}.AppendJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				if plain, _ := (wire.QueryBody{Answer: storage.ElementAnswer(r.Elements)}).AppendJSON(nil); !bytes.Equal(spliced, plain) {
					t.Fatalf("%s at epoch %d: the spliced body is not the encoded one", name, r.Epoch)
				}
				return elementKeys(t, r.Elements), r.Epoch
			},
			oracle: func(v *readView) string { return defineView(t, v, defined) }})
	}
	kind("current", plan.Query{Kind: plan.QCurrent}, refmodel.Current)
	for range 3 {
		vt := chronon.Chronon(pick(vts))
		kind(fmt.Sprintf("timeslice %d", vt), plan.Query{Kind: plan.QTimeslice, VTLo: int64(vt), VTHi: int64(vt) + 1},
			func(els []*element.Element) []*element.Element { return refmodel.Timeslice(els, vt) })
		tt := chronon.Chronon(pick(tts))
		kind(fmt.Sprintf("rollback %d", tt), plan.Query{Kind: plan.QRollback, TT: int64(tt)},
			func(els []*element.Element) []*element.Element { return refmodel.Rollback(els, tt) })
		kind(fmt.Sprintf("asof %d %d", vt, tt), plan.Query{Kind: plan.QAsOf, VTLo: int64(vt), VTHi: int64(vt) + 1, TT: int64(tt)},
			func(els []*element.Element) []*element.Element { return refmodel.AsOf(els, vt, tt) })
	}
	stmt := func(src string) {
		q, err := tsql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// An aggregate may fail — an open-ended interval spans more windows
		// than any answer may hold — and then fails alike on both sides.
		ps = append(ps, probe{name: src, fp: tsql.PlanQuery(q),
			answer: func(e *Entry) (string, uint64) {
				res, _, _, ep, err := e.SelectEpochCtx(ctx, q)
				if err != nil {
					return "error: " + err.Error(), e.Epoch()
				}
				return fmt.Sprint(res.Rows), ep
			},
			oracle: func(v *readView) string {
				res, err := v.selected(q)
				if err != nil {
					return "error: " + err.Error()
				}
				return fmt.Sprint(res.Rows)
			}})
	}
	a, b := pick(vts), pick(vts)
	lo, hi := min(a, b), max(a, b)+1
	asof, at := pick(tts), pick(vts)
	for _, tail := range []string{"", fmt.Sprintf(" as of %d", asof)} {
		stmt(fmt.Sprintf("select es, v from %s%s when valid at %d", rel, tail, at))
		stmt(fmt.Sprintf("select es, v from %s%s when valid during [%d, %d)", rel, tail, lo, hi))
		if e.Schema().ValidTime == element.IntervalStamp {
			stmt(fmt.Sprintf("select es from %s%s when overlaps [%d, %d)", rel, tail, lo, hi))
		}
		for _, when := range []string{"", fmt.Sprintf(" when valid during [%d, %d)", lo, hi), fmt.Sprintf(" when valid at %d", at)} {
			for _, mode := range []string{"", ", rolling 3", ", cumulative"} {
				stmt(fmt.Sprintf("select count(*), sum(v) from %s%s%s group by window(%d%s)", rel, tail, when, 75, mode))
			}
		}
	}
	// Cells an answer is rebuilt from after a write: a clamp on window
	// edges, and a WHERE, under every mode.
	for _, mode := range []string{"", ", rolling 3", ", cumulative"} {
		stmt(fmt.Sprintf("select count(*), max(v) from %s when valid during [%d, %d) group by window(%d%s)", rel, lo/75*75, (hi/75+1)*75, 75, mode))
		stmt(fmt.Sprintf("select count(*), sum(v) from %s where v > 40 group by window(%d%s)", rel, 150, mode))
	}
	return ps
}

// validatorRel is one relation under the test: its probes, the validators
// its client holds, and the model of every epoch it published.
type validatorRel struct {
	e      *Entry
	probes []probe
	held   []held
	model  map[uint64]stepModel
}

// outcomes tallies what revalidation found, for the log and the sweep's own
// coverage check.
type outcomes map[Validation]int

// check revalidates every held validator of r at the current epoch: a 304
// must hand back what the definition answers at that epoch, a "changed"
// must be explained by a modelled change that meets the footprint. Then some
// probes refresh their body, as a client that asked again would, and some
// more are asked through the catalog alone — the POST path, whose result
// cache answers across epochs — every answer held to the definition.
func (r *validatorRel) check(t *testing.T, rng *rand.Rand, where string, tally outcomes) {
	t.Helper()
	v := r.e.view.Load()
	for i, p := range r.probes {
		h := &r.held[i]
		if h.ok {
			now, got := r.e.Revalidate(h.epoch, p.fp)
			if now != v.epoch {
				t.Fatalf("%s %s: revalidated at epoch %d, the view is at %d", where, p.name, now, v.epoch)
			}
			tally[got]++
			switch {
			case got.NotModified():
				if want := p.oracle(v); want != h.body {
					t.Fatalf("%s %s: 304 from epoch %d at %d, but the answer moved:\n held %s\n now  %s", where, p.name, h.epoch, now, h.body, want)
				}
				h.epoch = now // the client keeps the body and the new validator
			case got == ValidationChanged:
				explained := false
				for ep := h.epoch + 1; ep <= now && !explained; ep++ {
					m, ok := r.model[ep]
					if !ok {
						t.Fatalf("%s %s: epoch %d was published by nothing the test did", where, p.name, ep)
					}
					explained = m.sees(p.fp)
				}
				if !explained {
					t.Fatalf("%s %s: changed between epochs %d and %d, but no change there meets %+v", where, p.name, h.epoch, now, p.fp)
				}
				h.ok = false
			default:
				t.Fatalf("%s %s: validator of epoch %d unknown at %d", where, p.name, h.epoch, now)
			}
		}
		refresh := !h.ok || rng.Intn(5) == 0
		if !refresh && rng.Intn(3) != 0 {
			continue
		}
		body, ep := p.answer(r.e)
		if ep != v.epoch {
			t.Fatalf("%s %s: answered at epoch %d, the view is at %d", where, p.name, ep, v.epoch)
		}
		if want := p.oracle(v); body != want {
			t.Fatalf("%s %s: the catalog answers\n %s\nthe definition\n %s", where, p.name, body, want)
		}
		if refresh {
			*h = held{body: body, epoch: ep, ok: true}
		}
	}
}

// record books the epochs a step published with what the test knows it did.
func (r *validatorRel) record(t *testing.T, before uint64, m stepModel) {
	t.Helper()
	after := r.e.Epoch()
	if after != before && !m.everything && !m.noted {
		t.Fatalf("%s: epochs %d..%d published by a step the test thought changed nothing", r.e.Name(), before+1, after)
	}
	for ep := before + 1; ep <= after; ep++ {
		r.model[ep] = m
	}
}

// validatorDriver mutates the primary's relations, one step at a time.
type validatorDriver struct {
	rng     *rand.Rand
	hot     []int64 // instants a third of the writes start or end at
	live    map[*Entry][]surrogate.Surrogate
	horizon map[*Entry]chronon.Chronon // the last vacuum's, which the next may not precede
	span    int64
}

func (d *validatorDriver) insertion(e *Entry) relation.Insertion {
	var vt element.Timestamp
	switch {
	case e.Schema().ValidTime == element.IntervalStamp:
		lo := d.rng.Int63n(d.span)
		n := 1 + d.rng.Int63n(60)
		if d.rng.Intn(10) == 0 {
			n = 1 + d.rng.Int63n(d.span/2)
		}
		switch d.rng.Intn(6) {
		case 0:
			lo = d.hot[d.rng.Intn(len(d.hot))]
		case 1:
			lo = d.hot[d.rng.Intn(len(d.hot))] + 1 - n // its last chronon is hot
		}
		vt = element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+n))
		if d.rng.Intn(40) == 0 {
			vt = element.SpanOf(chronon.Chronon(lo), chronon.Forever) // open-ended
		}
	case d.rng.Intn(3) == 0:
		vt = element.EventAt(chronon.Chronon(d.hot[d.rng.Intn(len(d.hot))]))
	case e.Name() == "ev" && d.rng.Intn(8) != 0:
		// The declared non-decreasing relation mostly appends at its head.
		head := int64(0)
		if ids := d.live[e]; len(ids) > 0 {
			head = d.span / 2
		}
		vt = element.EventAt(chronon.Chronon(head + d.rng.Int63n(d.span/2)))
	default:
		vt = element.EventAt(chronon.Chronon(d.rng.Int63n(d.span)))
	}
	return relation.Insertion{VT: vt, Varying: []element.Value{element.Int(d.rng.Int63n(100))}}
}

// closeStamp finds when es was closed.
func closeStamp(e *Entry, es surrogate.Surrogate) chronon.Chronon {
	for _, el := range storage.Elements(e.view.Load().engine.Store()) {
		if el.ES == es && !el.Current() {
			return el.TTEnd
		}
	}
	return chronon.Forever
}

func (d *validatorDriver) find(e *Entry, es surrogate.Surrogate) *element.Element {
	for _, el := range current(e).Elements {
		if el.ES == es {
			return el
		}
	}
	return nil
}

// step runs one random mutation on e and returns what it changed. A close
// changes what answers from the closed version's tt⊢ on (the tt⊣ they
// print), and a write that degrades the store's label changes everything.
func (d *validatorDriver) step(t *testing.T, e *Entry) (m stepModel) {
	ctx := context.Background()
	org := e.Physical().Org
	defer func() {
		if e.Physical().Org != org {
			m.everything = true
		}
	}()
	ids := d.live[e]
	pick := func() (int, surrogate.Surrogate) {
		i := d.rng.Intn(len(ids))
		return i, ids[i]
	}
	switch p := d.rng.Intn(100); {
	case p < 30:
		if el, err := insert(e, d.insertion(e)); err == nil {
			m.add(el.TTStart, el.VT)
			d.live[e] = append(ids, el.ES)
		}
	case p < 50:
		ins := make([]relation.Insertion, 1+d.rng.Intn(40))
		for i := range ins {
			ins[i] = d.insertion(e)
		}
		res, err := e.InsertBatch(ctx, ins, nil, false)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		for _, it := range res.Items {
			if it.Status == BatchStored {
				m.add(it.Elem.TTStart, it.Elem.VT)
				d.live[e] = append(d.live[e], it.Elem.ES)
			}
		}
	case p < 62 && len(ids) > 0:
		i, es := pick()
		old := d.find(e, es)
		if err := remove(e, es); err != nil {
			t.Fatalf("delete %v: %v", es, err)
		}
		m.add(min(closeStamp(e, es), old.TTStart), old.VT)
		d.live[e] = append(ids[:i:i], ids[i+1:]...)
	case p < 74 && len(ids) > 0:
		i, es := pick()
		old := d.find(e, es)
		repl, err := modify(e, es, d.insertion(e).VT, []element.Value{element.Int(d.rng.Int63n(100))})
		if err != nil {
			return m // refused by a declaration: nothing published
		}
		m.add(min(repl.TTStart, old.TTStart), old.VT)
		m.add(repl.TTStart, repl.VT)
		d.live[e] = append(append(ids[:i:i], ids[i+1:]...), repl.ES)
	case p < 80:
		cs := []constraint.Constraint{
			constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()},
			constraint.Event{Spec: core.RetroactiveSpec()},
		}
		if e.Declare([]constraint.Descriptor{mustDescribe(t, cs[d.rng.Intn(len(cs))], constraint.PerRelation)}) == nil {
			m.everything = true
		}
	case p < 86:
		_, migrated, err := e.Respecialize()
		if err != nil {
			t.Fatalf("respecialize: %v", err)
		}
		m.everything = migrated
	case p < 93:
		e.Compact() // seals, publishes nothing: a step that changed nothing
	default:
		horizon := max(d.horizon[e], e.Locked().Unwrap().Clock().Now()-chronon.Chronon(d.rng.Int63n(400)))
		d.horizon[e] = horizon
		n, err := e.Vacuum(horizon)
		if err != nil {
			t.Fatalf("vacuum: %v", err)
		}
		m.everything = n > 0
	}
	return m
}

func TestConditionalReadsAgainstTheDefinition(t *testing.T) {
	seeds, steps := 6, 140
	if testing.Short() || raceEnabled {
		seeds = 1
	}
	tally := outcomes{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := wal.NewErrFS()
			w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			c := New(Config{WAL: w, CacheBytes: 8 << 20, NewClock: func() tx.Clock { return &backwardClock{} }})
			if err := c.Open(); err != nil {
				t.Fatal(err)
			}
			const span = 3000
			d := &validatorDriver{rng: rng, live: map[*Entry][]surrogate.Surrogate{}, horizon: map[*Entry]chronon.Chronon{}, hot: make([]int64, 24), span: span}
			tts := make([]int64, 16)
			for i := range d.hot {
				d.hot[i] = rng.Int63n(span)
			}
			for i := range tts {
				tts[i] = rng.Int63n(80 * int64(steps))
			}
			lsnModel := map[uint64]stepModel{} // what each frame of the log did
			var rels []*validatorRel
			for _, name := range []string{"ev", "iv", "hp"} {
				schema := relation.Schema{Name: name, ValidTime: element.EventStamp, Granularity: chronon.Second,
					Varying: []relation.Column{{Name: "v", Type: element.KindInt}}}
				if name == "iv" {
					schema.ValidTime = element.IntervalStamp
				}
				e, err := c.Create(schema)
				if err != nil {
					t.Fatal(err)
				}
				lsnModel[e.walLSN.Load()] = stepModel{everything: true}
				switch name {
				case "ev": // the vt-ordered log
					if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)}); err != nil {
						t.Fatal(err)
					}
					lsnModel[e.walLSN.Load()] = stepModel{everything: true}
				case "hp":
					onTheHeap(t, e)
				}
				rels = append(rels, &validatorRel{e: e, model: map[uint64]stepModel{}})
			}
			for _, r := range rels {
				r.probes = probesFor(t, r.e, rng, d.hot, tts)
				r.held = make([]held, len(r.probes))
				r.check(t, rng, "primary", tally)
			}
			for i := 0; i < steps; i++ {
				r := rels[rng.Intn(len(rels))]
				before, lsn := r.e.Epoch(), r.e.walLSN.Load()
				m := d.step(t, r.e)
				r.record(t, before, m)
				if l := r.e.walLSN.Load(); l != lsn {
					lsnModel[l] = m
				}
				r.check(t, rng, fmt.Sprintf("primary step %d", i), tally)
			}

			// The follower: the log in chunks, a compaction now and then. Its
			// probes roll back to the very stamps the log carries, so a
			// replayed change can fall on one.
			stamps := map[string][]int64{}
			for _, r := range rels {
				_ = r.e.Locked().View(func(rr *relation.Relation) error {
					for _, el := range rr.Versions() {
						stamps[r.e.Name()] = append(stamps[r.e.Name()], int64(el.TTStart), int64(el.TTStart)-1)
					}
					return nil
				})
			}
			f := New(Config{Follower: true, CacheBytes: 8 << 20, NewClock: logicalClock})
			recs := recordsOf(t, fs)
			frels := map[string]*validatorRel{}
			for i := 0; i < len(recs); {
				n := min(1+rng.Intn(8), len(recs)-i)
				chunk := map[string]stepModel{}
				for _, rec := range recs[i : i+n] {
					m, ok := lsnModel[rec.LSN]
					if !ok && rec.Rel == eventsSchema.Name {
						// A migration's row: a step's decision, written to a
						// relation the steps do not model.
						m, ok = stepModel{everything: true}, true
					}
					if !ok {
						t.Fatalf("frame %d (kind %d) was written by nothing the test did", rec.LSN, rec.Kind)
					}
					um := chunk[rec.Rel]
					um.union(m)
					chunk[rec.Rel] = um
				}
				before := map[string]uint64{}
				for name, r := range frels {
					before[name] = r.e.Epoch()
				}
				if err := f.ApplyReplicated(recs[i : i+n]); err != nil {
					t.Fatalf("follower apply: %v", err)
				}
				i += n
				for _, name := range f.Names() {
					r := frels[name]
					if r == nil {
						e, _ := f.Get(name)
						r = &validatorRel{e: e, model: map[uint64]stepModel{}}
						r.probes = probesFor(t, e, rng, d.hot, append(stamps[name], tts...))
						r.held = make([]held, len(r.probes))
						frels[name] = r
					}
					r.record(t, before[name], chunk[name])
					if rng.Intn(6) == 0 {
						b := r.e.Epoch()
						r.e.Compact()
						r.record(t, b, stepModel{})
					}
					r.check(t, rng, fmt.Sprintf("follower at frame %d", i), tally)
				}
			}
			_ = w.Close()
			// The result cache answered across epochs on both nodes, and
			// aggregates were rebuilt from the cells of earlier epochs.
			for node, cat := range map[string]*Catalog{"primary": c, "follower": f} {
				st := cat.Cache().Stats()
				if st.Revalidated == 0 {
					t.Fatalf("the %s's result cache served nothing across epochs: %+v", node, st)
				}
				var rebuilt, refolded, reused int64
				for _, name := range cat.Names() {
					e, _ := cat.Get(name)
					bs := e.BatchStats()
					rebuilt, refolded, reused = rebuilt+bs.Rebuilt, refolded+bs.WindowsRefolded, reused+bs.WindowsReused
				}
				if rebuilt == 0 || refolded == 0 || reused == 0 {
					t.Fatalf("the %s rebuilt %d aggregates, folding %d windows again and copying %d", node, rebuilt, refolded, reused)
				}
				t.Logf("%s's result cache: %d hits, %d of them revalidated, %d misses; %d aggregates rebuilt, %d windows refolded, %d reused",
					node, st.Hits, st.Revalidated, st.Misses, rebuilt, refolded, reused)
			}
		})
	}
	t.Logf("outcomes: %d same, %d revalidated, %d changed", tally[ValidationSame], tally[ValidationRevalidated], tally[ValidationChanged])
	if tally[ValidationRevalidated] == 0 || tally[ValidationChanged] == 0 || tally[ValidationSame] == 0 {
		t.Fatalf("the sweep did not reach every outcome: %v", tally)
	}
}

// TestRevalidateUnderConcurrentWrites is the lock-free side of the change
// log: readers pin views and revalidate what they hold while a writer
// commits inserts and deletes, retroactive and at the head. A 304 at a
// pinned view must hand back what the definition answers on that view.
// Run under -race, it is also the proof that a reader never trusts a slot
// the writer is rewriting.
func TestRevalidateUnderConcurrentWrites(t *testing.T) {
	c := New(Config{CacheBytes: 8 << 20, NewClock: logicalClock})
	e, err := c.Create(relation.Schema{Name: "iv", ValidTime: element.IntervalStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	d := &validatorDriver{rng: rng, live: map[*Entry][]surrogate.Surrogate{}, hot: make([]int64, 24), span: 100_000}
	for i := range d.hot {
		d.hot[i] = rng.Int63n(d.span)
	}
	for range 300 {
		if _, err := insert(e, d.insertion(e)); err != nil {
			t.Fatal(err)
		}
	}
	// The element reads and the clamped tumbling aggregate: the palette a
	// reader can walk between two writes.
	var probes []probe
	tts := make([]int64, 16)
	for i := range tts {
		tts[i] = 3000 + rng.Int63n(20_000)
	}
	for _, p := range probesFor(t, e, rng, d.hot, tts) {
		if !strings.HasPrefix(p.name, "select") || strings.Contains(p.name, "during") && strings.HasSuffix(p.name, "window(75)") && !strings.Contains(p.name, "as of") {
			probes = append(probes, p)
		}
	}
	const readers = 3
	rounds := int64(200)
	if raceEnabled {
		rounds = 50
	}
	var done sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	var walked atomic.Int64 // rounds the readers finished
	var failed atomic.Bool  // a reader saw a wrong 304; the writer stops
	tally := outcomes{}
	for range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			local := outcomes{}
			hs := make([]held, len(probes))
			for ; ; walked.Add(1) {
				select {
				case <-stop:
					mu.Lock()
					for k, n := range local {
						tally[k] += n
					}
					mu.Unlock()
					return
				default:
				}
				v := e.view.Load()
				for i, p := range probes {
					h := &hs[i]
					if h.ok {
						got := e.revalidate(v, h.epoch, p.fp)
						local[got]++
						if got.NotModified() {
							if want := p.oracle(v); want != h.body && !failed.Swap(true) {
								t.Errorf("%s: 304 from epoch %d at %d over a moved answer", p.name, h.epoch, v.epoch)
							}
							h.epoch = v.epoch
							continue
						}
					}
					*h = held{body: p.oracle(v), epoch: v.epoch, ok: true}
				}
			}
		}()
	}
	// The writer keeps a few writes ahead of the readers' rounds: enough
	// that most revalidations cross writes, few enough that the relation —
	// and the definition each reader recomputes — stays small.
	var live []surrogate.Surrogate
	writes := 0
	for ; walked.Load() < readers*rounds && !failed.Load(); writes++ {
		for int64(writes) > 8+walked.Load() && walked.Load() < readers*rounds && !failed.Load() {
			runtime.Gosched()
		}
		if len(live) > 0 && rng.Intn(8) == 0 {
			j := rng.Intn(len(live))
			if err := remove(e, live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		el, err := insert(e, d.insertion(e))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, el.ES)
	}
	close(stop)
	done.Wait()
	t.Logf("outcomes over %d writes: %d same, %d revalidated, %d changed, %d unknown", writes,
		tally[ValidationSame], tally[ValidationRevalidated], tally[ValidationChanged], tally[ValidationUnknown])
	if tally[ValidationRevalidated] == 0 {
		t.Fatal("no reader revalidated across a write")
	}
}

// TestChangeSummaries pins the summary each kind of publish records: an
// insert its stamp and valid time, a delete the closed version's tt⊢ and
// valid time, a modify both elements with the replaced version's tt⊢, an
// interval's last chronon inclusive; a vacuum everything. A close rewrites
// the tt⊣ a rollback prints for the version from its tt⊢ on, so a rollback
// validator held across the delete of an element in its answer is changed,
// and the answer the result cache then gives prints the close.
func TestChangeSummaries(t *testing.T) {
	c := New(Config{NewClock: logicalClock, CacheBytes: 1 << 20})
	e, err := c.Create(relation.Schema{Name: "iv", ValidTime: element.IntervalStamp, Granularity: chronon.Second})
	if err != nil {
		t.Fatal(err)
	}
	last := func() change {
		t.Helper()
		ch, ok := e.changes.at(e.Epoch())
		if !ok {
			t.Fatalf("no change recorded for epoch %d", e.Epoch())
		}
		return ch
	}
	if got := last(); got != everything {
		t.Fatalf("create recorded %+v, want everything", got)
	}
	a, err := insert(e, relation.Insertion{VT: element.SpanOf(100, 200)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := last(), (change{minTT: int64(a.TTStart), vtLo: 100, vtLast: 199, noted: true}); got != want {
		t.Fatalf("insert recorded %+v, want %+v", got, want)
	}
	b, err := modify(e, a.ES, element.SpanOf(500, 501), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := last(), (change{minTT: int64(a.TTStart), vtLo: 100, vtLast: 500, noted: true}); got != want {
		t.Fatalf("modify recorded %+v, want %+v", got, want)
	}
	rb := plan.Query{Kind: plan.QRollback, TT: int64(b.TTStart)}
	held := rollback(e, b.TTStart)
	if len(held.Elements) != 1 || held.Elements[0].TTEnd != chronon.Forever {
		t.Fatalf("rollback to %d before the delete: %v", b.TTStart, held.Elements)
	}
	if err := remove(e, b.ES); err != nil {
		t.Fatal(err)
	}
	if got, want := last(), (change{minTT: int64(b.TTStart), vtLo: 500, vtLast: 500, noted: true}); got != want {
		t.Fatalf("delete recorded %+v, want %+v", got, want)
	}
	if _, got := e.Revalidate(held.Epoch, rb); got != ValidationChanged {
		t.Fatalf("a rollback validator held across the delete of its element: %v", got)
	}
	now := rollback(e, b.TTStart)
	if len(now.Elements) != 1 || now.Elements[0].TTEnd != closeStamp(e, b.ES) || now.Epoch != e.Epoch() {
		t.Fatalf("rollback to %d after the delete: %v at epoch %d", b.TTStart, now.Elements, now.Epoch)
	}
	if n, err := e.Vacuum(e.Locked().Unwrap().Clock().Now()); err != nil || n != 2 {
		t.Fatalf("vacuum removed %d: %v", n, err)
	}
	if got := last(); got != everything {
		t.Fatalf("vacuum recorded %+v, want everything", got)
	}
	if everything.minTT != math.MinInt64 {
		t.Fatal("everything must be stamped before any rollback")
	}
}
