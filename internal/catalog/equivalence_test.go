package catalog

// Live ≡ boot replay ≡ follower apply. A seeded generator drives one
// random operation sequence — keyed and unkeyed insert/delete/modify,
// atomic and non-atomic batches with dedup hits, repeated keys and
// rejected elements, batches under one key and their replays (whole, or
// with another count or body), keyed retries, key reuse across operations,
// declarations, re-specializations, and inserts that break an adopted
// order and degrade the store — against a primary. A second primary then
// boots from nothing but the first one's log, and a follower is fed the
// same frames in random chunkings (re-shipping some). All three must
// agree on everything a client or operator can observe, and each must
// answer the paper's queries as the definition (refmodel) does over the
// live relation's versions.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/refmodel"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/wal"
)

// eqState is everything the equivalence compares for one relation.
type eqState struct {
	Golden             goldenRel
	Declared, Inferred []string
	Migrations         uint64
	// The dedup window's two generations, each key with its frame's LSN:
	// which generation a key sits in decides when it is forgotten. Each
	// batch key's entry besides: its count, digest, stored indexes and
	// elements.
	DedupCur, DedupPrev map[string]uint64
	DedupBatches        map[string]string
	Answers             map[string][]string
}

func classNames(cs []core.Class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// eqCapture snapshots e. Query probes span the relation's whole valid-
// and transaction-time range so every version takes part in some answer,
// and each probe of the four query kinds must answer, version for version
// and in order, what the definition does over flat: the live relation's
// versions, so that no route is held only to the others.
func eqCapture(t *testing.T, e *Entry, flat []*element.Element, vtHi, ttHi int64) eqState {
	t.Helper()
	ctx := context.Background()
	p := e.Physical()
	s := eqState{
		Golden: goldenState(e), Declared: classNames(p.Declared), Inferred: classNames(p.Inferred),
		Migrations: p.Migrations, Answers: map[string][]string{},
	}
	_ = e.locked.View(func(r *relation.Relation) error {
		s.DedupCur, s.DedupPrev = lsns(e.dedup.cur), lsns(e.dedup.prev)
		s.DedupBatches = map[string]string{}
		for _, gen := range []map[string]dedupHit{e.dedup.prev, e.dedup.cur} {
			for key, h := range gen {
				if h.op != dedupBatch {
					continue
				}
				b, es, idx := e.dedup.batchOf(key, h)
				entry := fmt.Sprintf("lsn %d n %d digest %08x stored %v:", h.lsn, b.n, b.digest, idx)
				for _, el := range e.dedup.inserted(r, key, es) {
					entry += fmt.Sprintf(" %v|%v|%v|%v", el.ES, el.OS, el.VT, el.TTStart)
				}
				s.DedupBatches[key] = entry
			}
		}
		return nil
	})
	versions := func(els []*element.Element) string {
		var b strings.Builder
		for _, el := range els {
			fmt.Fprintf(&b, " %v|%v|%v|%v", el.ES, el.VT, el.TTStart, el.TTEnd)
		}
		return b.String()
	}
	answer := func(label string, res answered, err error, defined []*element.Element) {
		if err != nil {
			t.Fatalf("%s %s: %v", e.Name(), label, err)
		}
		if got, want := versions(res.Elements), versions(defined); got != want {
			t.Errorf("%s %s answers%s\nthe definition over the live versions%s", e.Name(), label, got, want)
		}
		s.Answers[label] = resultKey(res)
	}
	res, err := currentCtx(ctx, e)
	answer("current", res, err, refmodel.Current(flat))
	for i := int64(0); i <= 4; i++ {
		vt, tt, asOf := chronon.Chronon(vtHi*i/4), chronon.Chronon(ttHi*i/4), chronon.Chronon(ttHi*(4-i)/4)
		res, err = timesliceCtx(ctx, e, vt)
		answer(fmt.Sprintf("timeslice %d", vt), res, err, refmodel.Timeslice(flat, vt))
		res, err = rollbackCtx(ctx, e, tt)
		answer(fmt.Sprintf("rollback %d", tt), res, err, refmodel.Rollback(flat, tt))
		res, err = timesliceAsOfCtx(ctx, e, vt, asOf)
		answer(fmt.Sprintf("asof %d", vt), res, err, refmodel.AsOf(flat, vt, asOf))
	}
	for _, src := range []string{
		fmt.Sprintf("select es, vt, v from %s", e.Name()),
		fmt.Sprintf("select es, tt_start, tt_end from %s when valid during [%d, %d) where v > 10", e.Name(), vtHi/4, vtHi),
		fmt.Sprintf("select es from %s as of %d", e.Name(), ttHi/2),
		fmt.Sprintf("select count(*), sum(v), min(v), max(v) from %s group by window(7)", e.Name()),
		fmt.Sprintf("select count(*) from %s as of %d group by window(13, cumulative)", e.Name(), ttHi/2),
	} {
		q, err := tsql.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sel, _, _, err := e.SelectCtx(ctx, q)
		if err != nil {
			t.Fatalf("SelectCtx(%q): %v", src, err)
		}
		rows := make([]string, len(sel.Rows))
		for i, row := range sel.Rows {
			rows[i] = fmt.Sprint(row)
		}
		s.Answers[src] = rows
	}
	return s
}

// eqDriver generates the operation sequence for one relation.
type eqDriver struct {
	rng    *rand.Rand
	e      *Entry
	live   []surrogate.Surrogate // elements not yet deleted or modified away
	lastVT int64
	nkeys  int
	// keyed remembers every acknowledged keyed single operation as a
	// closure that re-issues it verbatim: the retry.
	keyed []func() error
	used  []string // every key handed out, for reuse and in-batch hits
	// batches remembers every acknowledged batch under one key, to replay;
	// replays and refusals count the replays answered from the window and
	// the changed ones refused.
	batches           []oneKeyBatch
	replays, refusals int
}

// oneKeyBatch is an acknowledged batch under one key: the request, and how
// many of its units the original stored.
type oneKeyBatch struct {
	ins    []relation.Insertion
	one    oneKey
	atomic bool
	stored int
}

// insertion draws the next element. Valid time normally trails the
// transaction time the relation's clock will issue (ahead ticks from
// now) by a few chronons — a retroactive, ordered history the tracker
// infers several classes from. A violator lands far behind everything
// stored: it breaks any observed or adopted ordering, and any declared
// one rejects it.
func (d *eqDriver) insertion(ahead int, violate bool) relation.Insertion {
	vt := d.rng.Int63n(10)
	if !violate || d.lastVT < 60 {
		now := int64(d.e.Locked().Unwrap().Clock().Now())
		vt = now + 10*int64(ahead) - d.rng.Int63n(3)
		d.lastVT = max(d.lastVT, vt)
	}
	return relation.Insertion{VT: element.EventAt(chronon.Chronon(vt)), Varying: []element.Value{element.Int(d.rng.Int63n(100))}}
}

func (d *eqDriver) key() string {
	if d.rng.Intn(2) == 0 {
		return ""
	}
	d.nkeys++
	k := fmt.Sprintf("%s-k%d", d.e.Name(), d.nkeys)
	d.used = append(d.used, k)
	return k
}

func (d *eqDriver) pick() (surrogate.Surrogate, bool) {
	if len(d.live) == 0 {
		return 0, false
	}
	i := d.rng.Intn(len(d.live))
	es := d.live[i]
	d.live = append(d.live[:i], d.live[i+1:]...)
	return es, true
}

func (d *eqDriver) remember(key string, retry func() error) {
	if key != "" {
		d.keyed = append(d.keyed, retry)
	}
}

func (d *eqDriver) step(t *testing.T) {
	ctx := context.Background()
	e := d.e
	switch p := d.rng.Intn(100); {
	case p < 34: // insert, occasionally one that breaks the order so far
		ins, key := d.insertion(1, d.rng.Intn(20) == 0), d.key()
		if el, err := e.InsertKeyed(ctx, ins, key); err == nil {
			d.live = append(d.live, el.ES)
			d.remember(key, func() error { _, err := e.InsertKeyed(ctx, ins, key); return err })
		}
	case p < 44: // delete
		if es, ok := d.pick(); ok {
			key := d.key()
			if err := e.DeleteKeyed(ctx, es, key); err != nil {
				t.Fatalf("delete %v: %v", es, err)
			}
			d.remember(key, func() error { return e.DeleteKeyed(ctx, es, key) })
		}
	case p < 56: // modify
		if es, ok := d.pick(); ok {
			ins, key := d.insertion(1, false), d.key()
			el, err := e.ModifyKeyed(ctx, es, ins.VT, ins.Varying, key)
			if err != nil {
				d.live = append(d.live, es) // a guard refused the replacement
				return
			}
			d.live = append(d.live, el.ES)
			d.remember(key, func() error { _, err := e.ModifyKeyed(ctx, es, ins.VT, ins.Varying, key); return err })
		}
	case p < 63: // batch under per-element keys: fresh, repeated and already-remembered keys; maybe a violator
		n := 2 + d.rng.Intn(5)
		ins, keys := make([]relation.Insertion, n), make([]string, n)
		for i := range ins {
			ins[i] = d.insertion(i+1, d.rng.Intn(25) == 0)
			switch keys[i] = d.key(); {
			case i > 0 && d.rng.Intn(10) == 0:
				keys[i] = keys[i-1]
			case len(d.used) > 0 && d.rng.Intn(8) == 0:
				keys[i] = d.used[d.rng.Intn(len(d.used))]
			}
		}
		if d.rng.Intn(4) == 0 {
			keys = nil
		}
		res, err := e.InsertBatch(ctx, ins, keys, d.rng.Intn(2) == 0)
		if err != nil {
			return // an atomic batch one element sank
		}
		for _, it := range res.Items {
			if it.Status == BatchStored {
				d.live = append(d.live, it.Elem.ES)
			}
		}
	case p < 71: // batch under one key, or a replay of one
		d.oneKeyBatch(t)
	case p < 83: // a client retry of an acknowledged keyed operation
		if len(d.keyed) > 0 {
			if err := d.keyed[d.rng.Intn(len(d.keyed))](); err != nil {
				t.Fatalf("retry of an acknowledged operation failed: %v", err)
			}
		}
	case p < 88: // a key reused for a different operation: refused, nothing logged
		if len(d.used) > 0 && len(d.live) > 0 {
			key, es := d.used[d.rng.Intn(len(d.used))], d.live[0]
			_ = e.DeleteKeyed(ctx, es, key)
			if el, ok := e.dedup.lookup(key); ok && el.op == dedupDelete {
				d.live = d.live[1:] // the key was free after all (its batch was rejected): a real delete
			}
		}
	case p < 92: // declare; refused when the history already violates it
		cs := []constraint.Constraint{
			constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()},
			constraint.Event{Spec: core.RetroactiveSpec()},
		}
		_ = e.Declare([]constraint.Descriptor{mustDescribe(t, cs[d.rng.Intn(len(cs))], constraint.PerRelation)})
	default: // respecialize: adopt whatever the extension still shows
		if _, _, err := e.Respecialize(); err != nil {
			t.Fatalf("respecialize: %v", err)
		}
	}
}

// oneKeyBatch issues a fresh batch under one key — unkeyed, under a key
// already used for a single operation, atomic or not, maybe with a
// violator — or replays an acknowledged one: the same request, answered
// from the window with its stored units deduped, or a prefix of it or the
// same units with another body digest, refused.
func (d *eqDriver) oneKeyBatch(t *testing.T) {
	ctx := context.Background()
	if len(d.batches) > 0 && d.rng.Intn(3) == 0 {
		b := d.batches[d.rng.Intn(len(d.batches))]
		remembered := d.e.HasIdemKey(b.one.key)
		one, ins := b.one, b.ins
		switch d.rng.Intn(3) {
		case 1:
			ins = ins[:len(ins)-1]
			one.n--
		case 2:
			one.digest++
		}
		res, err := d.e.InsertBatchKeyed(ctx, ins, one.key, one.digest, b.atomic)
		switch {
		case !remembered:
		case one != b.one:
			if !errors.Is(err, ErrIdemReuse) {
				t.Fatalf("a changed replay of batch %q: %+v, %v; want ErrIdemReuse", one.key, res, err)
			}
			d.refusals++
		case err != nil || res.Stored != 0 || res.Deduped != b.stored || res.Deduped+res.Rejected != len(ins):
			t.Fatalf("a replay of batch %q: stored %d, deduped %d, rejected %d, %v; the original stored %d",
				one.key, res.Stored, res.Deduped, res.Rejected, err, b.stored)
		default:
			d.replays++
		}
		if err == nil {
			for _, it := range res.Items {
				if it.Status == BatchStored {
					d.live = append(d.live, it.Elem.ES)
				}
			}
		}
		return
	}
	n := 2 + d.rng.Intn(5)
	ins := make([]relation.Insertion, n)
	for i := range ins {
		ins[i] = d.insertion(i+1, d.rng.Intn(25) == 0)
	}
	one := oneKey{key: d.key(), n: uint32(n), digest: d.rng.Uint32()}
	if len(d.used) > 0 && d.rng.Intn(10) == 0 {
		one.key = d.used[d.rng.Intn(len(d.used))]
	}
	atomic := d.rng.Intn(2) == 0
	res, err := d.e.InsertBatchKeyed(ctx, ins, one.key, one.digest, atomic)
	if err != nil {
		return // an atomic batch one element sank, or a key first used elsewhere
	}
	for _, it := range res.Items {
		if it.Status == BatchStored {
			d.live = append(d.live, it.Elem.ES)
		}
	}
	if one.key != "" && res.Stored > 0 {
		d.batches = append(d.batches, oneKeyBatch{ins: ins, one: one, atomic: atomic, stored: res.Stored})
	}
}

// flood stores a generation and more of keyed elements in 256-element
// batches: the dedup window swaps, and the keys remembered before the flood
// move to its older generation, where the retries after it must find them
// on all three routes.
func (d *eqDriver) flood(t *testing.T) {
	for n := dedupWindowCap + d.rng.Intn(dedupWindowCap/2); n > 0; n -= 256 {
		ins, keys := make([]relation.Insertion, 256), make([]string, 256)
		for i := range ins {
			d.nkeys++
			ins[i], keys[i] = d.insertion(i+1, false), fmt.Sprintf("%s-f%d", d.e.Name(), d.nkeys)
		}
		res, err := d.e.InsertBatch(context.Background(), ins, keys, false)
		if err != nil {
			t.Fatalf("flood: %v", err)
		}
		for _, it := range res.Items {
			if it.Status == BatchStored {
				d.live = append(d.live, it.Elem.ES)
			}
		}
	}
}

func TestLiveBootFollowerEquivalence(t *testing.T) {
	seeds, steps := 32, 200
	if testing.Short() {
		seeds = 6
	}
	kinds := map[wal.Kind]int{}
	degraded, replays, refusals := 0, 0, 0
	for seed := 1; seed <= seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := wal.NewErrFS()
			_, a := bootErrFS(t, fs)
			var drivers []*eqDriver
			for _, name := range []string{"ev1", "ev2"} {
				schema := eventSchema(name)
				schema.Varying = []relation.Column{{Name: "v", Type: element.KindInt}}
				e, err := a.Create(schema)
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				drivers = append(drivers, &eqDriver{rng: rng, e: e})
			}
			flooded := seed%8 == 1 // every eighth seed: capturing ≈ 10,000 more elements is most of the test's time
			for i := 0; i < steps; i++ {
				if flooded && i == steps/2 {
					for _, d := range drivers {
						d.flood(t)
					}
				}
				drivers[rng.Intn(len(drivers))].step(t)
			}
			var ttHi int64 // past every stamp the logical clocks issued
			for _, d := range drivers {
				if flooded && d.e.dedup.prev == nil {
					t.Fatalf("%s: the flood left the dedup window in one generation", d.e.Name())
				}
				ttHi = max(ttHi, int64(d.e.Locked().Unwrap().Clock().Now())+10)
			}

			recs := recordsOf(t, fs)
			for _, rec := range recs {
				kinds[rec.Kind]++
			}
			_, b := bootErrFS(t, fs)
			c := New(Config{Follower: true, NewClock: logicalClock})
			for i := 0; i < len(recs); {
				n := 1 + rng.Intn(12)
				if i+n > len(recs) {
					n = len(recs) - i
				}
				if err := c.ApplyReplicated(recs[i : i+n]); err != nil {
					t.Fatalf("follower apply [%d,%d): %v", i, i+n, err)
				}
				i += n
				if rng.Intn(5) == 0 && i > 3 {
					i -= 1 + rng.Intn(3) // a reconnect re-ships the tail; the watermark skips it
				}
			}

			for _, d := range drivers {
				replays, refusals = replays+d.replays, refusals+d.refusals
				name := d.e.Name()
				var flat []*element.Element
				_ = d.e.Locked().View(func(r *relation.Relation) error { flat = r.Versions(); return nil })
				want := eqCapture(t, d.e, flat, d.lastVT+5, ttHi)
				for _, reason := range d.e.Physical().Reasons {
					if strings.Contains(reason, "committed element violates the store order") {
						degraded++
					}
				}
				for route, cat := range map[string]*Catalog{"boot replay": b, "follower": c} {
					e, err := cat.Get(name)
					if err != nil {
						t.Fatalf("%s: %v", route, err)
					}
					got := eqCapture(t, e, flat, d.lastVT+5, ttHi)
					if reflect.DeepEqual(got, want) {
						continue
					}
					gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
					for i := 0; i < gv.NumField(); i++ {
						if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
							t.Errorf("%s of %q diverged from the live primary in %s:\n got  %+v\n want %+v",
								route, name, gv.Type().Field(i).Name, g, w)
						}
					}
				}
			}
		})
	}
	// The sweep must have exercised what it claims to.
	for _, k := range []wal.Kind{walCreate, walDeclare, walInsertKeyed, walDeleteKeyed, walModifyKeyed, walRespecialize, walInsertBatch, walInsertBatchOneKey} {
		if kinds[k] == 0 {
			t.Errorf("no seed journaled a frame of kind %d", k)
		}
	}
	for _, k := range []wal.Kind{walInsert, walDelete, walModify} {
		if kinds[k] != 0 {
			t.Errorf("the writer emitted %d legacy frames of kind %d", kinds[k], k)
		}
	}
	if degraded == 0 {
		t.Error("no seed ended with a store degraded by an order-breaking insert")
	}
	if replays == 0 || refusals == 0 {
		t.Errorf("one-key batches: %d replays answered from the window, %d changed ones refused", replays, refusals)
	}
}
