package catalog

// Differential equivalence harness for the window-aggregate chunk loop:
// every generated (history, query) pair is evaluated by the definition —
// vec.RowAggregateRuns over the pinned view's elements, which no reader,
// plan or partial ever touches — and on three legs: through the public read
// path, its run partials in whatever state the earlier statements left
// them, and below the result cache on the pinned view cold (nothing
// memoized under its key) and warm (merging what the cold run learned). All
// must be identical to the definition, errors included, and run on the
// access path the store's order licenses. Histories cover the temporal classes
// the specializer distinguishes (degenerate, sequential, vt-regular,
// violation-degraded, random), are reshaped by deletes and modifies, and
// are respecialized + compacted mid-build so queries cross sealed runs and
// unsealed tails. One more class, ledger, is the general organization as
// production runs it — long early stamps, short late ones, old valid times
// re-landing in new chunks, and no run ever compacted (its chunks are
// columns as they fill, as on every label) — so every clamp there is
// answered off the chunks' own zone maps. Two carry a declared two-sided
// bound: bounded, which never leaves the tt-ordered log, and relabelled,
// sealed on the vt-ordered log and then re-labelled down to the tt-ordered
// one by an element out of order. Between rounds of statements the sweep
// closes elements inside sealed runs, appends and seals, vacuums, and
// corrupts and repairs a run, so partials are invalidated every way they
// can be. A -race companion repeats the comparison on pinned snapshot views
// while inserts, vacuum, compaction and respecialization churn the live
// entry.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tsql"
	"repro/internal/vec"
)

func diffSchema(name string, stamp element.TimestampKind) relation.Schema {
	return relation.Schema{
		Name: name, ValidTime: stamp, Granularity: chronon.Second,
		Varying: []relation.Column{
			{Name: "v_int", Type: element.KindInt},
			{Name: "v_float", Type: element.KindFloat},
			{Name: "v_str", Type: element.KindString},
		},
	}
}

// diffValues draws one varying tuple; every column is nullable so the
// count(col)-vs-count(*) and null-skipping paths stay exercised.
func diffValues(rng *rand.Rand) []element.Value {
	vi := element.Int(rng.Int63n(200) - 50)
	if rng.Intn(10) == 0 {
		vi = element.Null()
	}
	// Multiples of 1/8 are exact in binary, so sums depend only on fold
	// order — which the fold fixes to arrival order.
	vf := element.Float(float64(rng.Intn(4000))/8 - 100)
	if rng.Intn(10) == 0 {
		vf = element.Null()
	}
	vs := element.String_(string(rune('a' + rng.Intn(5))))
	if rng.Intn(10) == 0 {
		vs = element.Null()
	}
	return []element.Value{vi, vf, vs}
}

// classVT advances one history class's valid-time sequence.
func classVT(class string, rng *rand.Rand, i int, cur *int64) int64 {
	switch class {
	case "degenerate":
		// Tracks the logical transaction clock (start 0, step 10): valid
		// time equals transaction time, the degenerate class.
		return int64(10 * (i + 1))
	case "sequential":
		*cur += rng.Int63n(12)
		return *cur
	case "vtregular":
		return int64(7 * i)
	case "degraded":
		*cur += rng.Int63n(12)
		if rng.Intn(32) == 0 {
			return *cur - 40 - rng.Int63n(40) // rare order violation
		}
		return *cur
	case "ledger":
		// Starts wander around a slow drift: no order to infer, yet a late
		// chunk's envelope is narrow.
		return max(10*int64(i)+rng.Int63n(801)-400, 0)
	default: // random
		return rng.Int63n(4000)
	}
}

// diffBuildN is how many elements buildDiffRelation inserts before sealing:
// more than three sealable runs of 256.
const diffBuildN = 800

// diffRel is one relation of the sweep with the valid-time high-water mark
// its appends continue from.
type diffRel struct {
	c     *Catalog
	e     *Entry
	stamp element.TimestampKind
	vtHi  int64
	rng   *rand.Rand
	// general marks the ledger class: only the advisor decides what is
	// compacted, and on a general relation it compacts nothing.
	general bool
	// bounded marks the declared strongly-bounded classes: every valid time
	// stays within boundedOff of its transaction time. relabel marks the one
	// of them built in valid-time order, sealed on the vt-ordered log and
	// then re-labelled down to the tt-ordered log.
	bounded, relabel bool
}

// boundedOff is the bounded class's declared offset bound, |vt − tt| ≤
// boundedOff: the planner turns its valid-time clamps into tt-windows.
const boundedOff = 100

// boundedVT draws a valid time within boundedOff of the transaction time
// the relation's next write takes (the test clock steps by 10), so neither an
// order nor a degenerate class is ever observed and the relation stays on the
// tt-ordered log with the pushdown on. The last element of a chunk sits at
// the bound's top and the first at its bottom: a clamp at one of their valid
// times then puts the tt-window's end exactly on that element.
func (d *diffRel) boundedVT() int64 {
	off := d.rng.Int63n(2*boundedOff+1) - boundedOff
	switch d.e.view.Load().engine.Store().Len() % vec.BatchSize {
	case vec.BatchSize - 1:
		off = boundedOff
	case 0:
		off = -boundedOff
	}
	return d.now() + 10 + off
}

// orderedVT draws the relabelled class's valid times before the re-label:
// a few chronons past the transaction time, so each lands past the one
// before it (the clock steps by 10) and the order is inferred.
func (d *diffRel) orderedVT() int64 { return d.now() + 10 + d.rng.Int63n(5) }

// now is the relation's transaction clock; its next write takes now + 10.
func (d *diffRel) now() int64 {
	var now chronon.Chronon
	_ = d.e.Locked().View(func(r *relation.Relation) error {
		now = r.Clock().Now()
		return nil
	})
	return int64(now)
}

// stampAt builds the relation's kind of valid time-stamp starting at lo.
func (d *diffRel) stampAt(lo, length int64) element.Timestamp {
	if lo+length > d.vtHi {
		d.vtHi = lo + length
	}
	if d.stamp == element.EventStamp {
		return element.EventAt(chronon.Chronon(lo))
	}
	return element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+length))
}

// appendOrdered inserts n elements past every stored valid time, so no
// inferred or adopted order is broken and the organization keeps its runs.
func (d *diffRel) appendOrdered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		vt := d.stampAt(d.vtHi+d.rng.Int63n(12), 1+d.rng.Int63n(9))
		if d.bounded {
			vt = d.stampAt(d.boundedVT(), 1)
		}
		if _, err := insert(d.e, relation.Insertion{VT: vt, Varying: diffValues(d.rng)}); err != nil {
			t.Fatalf("%s append: %v", d.e.Name(), err)
		}
	}
}

// seal runs an advisor pass (respecialize to what the history licenses,
// compact the vt-ordered log) and then compacts whatever organization the
// relation is on — the tt-ordered log seals too when asked directly — so
// every class of history is queried across sealed runs.
func (d *diffRel) seal(t *testing.T) {
	t.Helper()
	if _, err := d.c.AdvisePass(AdvisorConfig{}); err != nil { // zero thresholds: examine everything
		t.Fatalf("AdvisePass: %v", err)
	}
	if !d.general {
		d.e.Compact()
	}
}

// closeSome deletes or, every third time, modifies n random current
// elements. A modify closes the old version where it sits and appends the
// new one; with ordered set it lands past the high-water mark, otherwise
// anywhere — which a vt-ordered log answers by degrading to the general
// organization, a new store.
func (d *diffRel) closeSome(n int, ordered bool) {
	els := current(d.e).Elements
	for i := 0; i < n && len(els) > 0; i++ {
		el := els[d.rng.Intn(len(els))]
		if i%3 != 2 {
			_ = remove(d.e, el.ES) // a repeat fails: itself a legal history
			continue
		}
		lo := d.rng.Int63n(d.vtHi)
		if ordered {
			lo = d.vtHi + d.rng.Int63n(12)
		}
		_, _ = modify(d.e, el.ES, d.stampAt(lo, 5), diffValues(d.rng))
	}
}

// buildDiffRelation grows one relation through a class-shaped history:
// bulk inserts, a sprinkle of deletes, an advisor pass that respecializes
// to what the inferred class licenses and a compaction that seals three
// runs, then a fresh tail past the sealed prefix.
func buildDiffRelation(t *testing.T, c *Catalog, name, class string, stamp element.TimestampKind, rng *rand.Rand) *diffRel {
	t.Helper()
	e, err := c.Create(diffSchema(name, stamp))
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	d := &diffRel{c: c, e: e, stamp: stamp, vtHi: 1, rng: rng, general: class == "ledger",
		bounded: class == "bounded" || class == "relabelled", relabel: class == "relabelled"}
	if d.bounded {
		spec, err := core.StronglyBoundedSpec(chronon.Seconds(boundedOff), chronon.Seconds(boundedOff))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.Event{Spec: spec}, constraint.PerRelation)}); err != nil {
			t.Fatalf("Declare(%s): %v", name, err)
		}
	}
	var cur int64
	var esList []surrogate.Surrogate
	for i := 0; i < diffBuildN; i++ {
		lo, length := classVT(class, rng, i, &cur), 1+rng.Int63n(30)
		switch {
		case d.relabel:
			lo = d.orderedVT()
		case d.bounded:
			lo = d.boundedVT()
		}
		if d.general && i < 300 && i%2 == 0 {
			length = 3000 // the ledger's long early intervals
		}
		el, err := insert(e, relation.Insertion{VT: d.stampAt(lo, length), Varying: diffValues(rng)})
		if err != nil {
			t.Fatalf("%s insert %d: %v", name, i, err)
		}
		esList = append(esList, el.ES)
	}
	// Deletes before sealing: runs seal with closed elements in them.
	for i := 0; i < diffBuildN/32; i++ {
		_ = remove(e, esList[rng.Intn(len(esList))])
	}
	d.seal(t)
	want := diffBuildN / 256
	if d.general {
		want = 0
	}
	if got := e.Physical().Compaction.Runs; got != want {
		t.Fatalf("%s: %d sealed runs after the build, want %d", name, got, want)
	}
	if d.relabel {
		d.relabelDown(t)
	}
	d.appendOrdered(t, 24) // unsealed tail past the compacted prefix
	if d.relabel {
		d.keepsTheWindow(t)
	}
	return d
}

// relabelDown takes the relabelled class from the vt-ordered log, where its
// build sealed it, to the tt-ordered log: two elements inside the declared
// bound, at its top and then at its bottom, put the second behind the first
// in valid time, which degrades the label; the sealed runs and the bound
// stay.
func (d *diffRel) relabelDown(t *testing.T) {
	t.Helper()
	if got := d.e.Physical().Org; got != storage.VTOrdered {
		t.Fatalf("%s: built on the %v; the class means the vt-ordered log first", d.e.Name(), got)
	}
	for _, off := range []int64{boundedOff, -boundedOff} {
		if _, err := insert(d.e, relation.Insertion{VT: d.stampAt(d.now()+10+off, 1), Varying: diffValues(d.rng)}); err != nil {
			t.Fatalf("%s: an element at offset %d: %v", d.e.Name(), off, err)
		}
	}
	p, a := d.e.Physical(), d.e.view.Load().engine.Access()
	if p.Org != storage.TTOrdered || p.Compaction.Runs != diffBuildN/256 || !a.HasOffsetBounds {
		t.Fatalf("%s: re-labelled to the %v with %d sealed runs, bounds %v", d.e.Name(), p.Org, p.Compaction.Runs, a.HasOffsetBounds)
	}
}

// keepsTheWindow: after the re-label a clamped aggregate still runs inside
// the tt window the declared bound makes of its clamp. The clamp reaches
// into every sealed run — no zone map prunes one — and ends hundreds of
// transaction times before the tail, which only the window passes over.
func (d *diffRel) keepsTheWindow(t *testing.T) {
	t.Helper()
	els := d.e.view.Load().elems()
	src := fmt.Sprintf("select count(*), sum(v_int) from %s when valid during [%d, %d) group by window(100)",
		d.e.Name(), int64(els[0].VT.Start()), int64(els[2*vec.BatchSize].VT.Start())+1)
	q, err := tsql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	before := d.e.BatchStats().ChunksPruned
	res, node, _, err := d.e.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	if node.Leaf().Kind != plan.TTWindowPushdown || d.e.BatchStats().ChunksPruned == before {
		t.Fatalf("%q ran on %v and passed over no chunk; the tt window must bound it", src, node.Leaf().Kind)
	}
	if want := mustDefine(t, d.e, src); !reflect.DeepEqual(res, want) {
		t.Fatalf("%q: %+v, the definition %+v", src, res, want)
	}
}

// genAggQuery emits one random aggregate statement (without LIMIT, which
// the runner appends) plus its LIMIT suffix.
func genAggQuery(rng *rand.Rand, rel string, interval bool, vtHi, ttHi int64) (base, lim string) {
	aggs := []string{
		"count(*)", "count(v_int)", "sum(v_int)", "sum(v_float)",
		"min(v_int)", "max(v_int)", "min(v_float)", "max(v_float)",
		"min(v_str)", "max(v_str)",
	}
	k := 1 + rng.Intn(3)
	parts := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		parts = append(parts, aggs[rng.Intn(len(aggs))])
	}
	if rng.Intn(16) == 0 {
		// Type errors must be errors on every leg, with the same text.
		parts = append(parts, "sum(v_str)")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "select %s from %s", strings.Join(parts, ", "), rel)
	if rng.Intn(10) < 3 {
		fmt.Fprintf(&b, " as of %d", rng.Int63n(ttHi+40))
	}
	switch rng.Intn(10) {
	case 0, 1:
		fmt.Fprintf(&b, " when valid at %d", rng.Int63n(vtHi+10))
	case 2, 3:
		lo := rng.Int63n(vtHi)
		fmt.Fprintf(&b, " when valid during [%d, %d)", lo, lo+1+rng.Int63n(vtHi))
	case 4:
		if interval {
			lo := rng.Int63n(vtHi)
			fmt.Fprintf(&b, " when overlaps [%d, %d)", lo, lo+1+rng.Int63n(40))
		}
	}
	switch rng.Intn(10) {
	case 0, 1:
		fmt.Fprintf(&b, " where v_int > %d", rng.Int63n(100)-50)
	case 2:
		fmt.Fprintf(&b, " where v_str == '%c'", 'a'+rune(rng.Intn(5)))
	}
	widths := []int64{7, 13, 50, 100, 256}
	w := widths[rng.Intn(len(widths))]
	switch rng.Intn(5) {
	case 0:
		fmt.Fprintf(&b, " group by window(%d, rolling %d)", w, 2+rng.Intn(4))
	case 1:
		fmt.Fprintf(&b, " group by window(%d, cumulative)", w)
	default:
		fmt.Fprintf(&b, " group by window(%d)", w)
	}
	if rng.Intn(4) == 0 {
		lim = fmt.Sprintf(" limit %d", 1+rng.Intn(6))
	}
	return b.String(), lim
}

// diffTally sums what the cold and warm executions of a sweep did.
type diffTally struct {
	statements, failed     int
	coldFolded, warmFolded int64
	warmMerged, warmGroups int64
}

// diffColdKeys makes every statement's cold execution a key of its own.
var diffColdKeys atomic.Int64

// runDiff evaluates one statement by the definition and on three legs —
// through the public read path, then cold and warm on the pinned view — and
// requires identical results (or identical errors).
// Returns whether the statement evaluated successfully.
func runDiff(t *testing.T, e *Entry, base, lim string, tally *diffTally) bool {
	t.Helper()
	ctx := context.Background()
	parse := func(src string) *tsql.Query {
		q, err := tsql.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		return q
	}
	qDef := parse(base + lim)
	rRes, rNode, _, rErr := e.SelectCtx(ctx, qDef)

	// The oracle never sees a reader, a plan or a partial.
	v := e.view.Load()
	want, wantErr := v.defined(qDef)

	type leg struct {
		name string
		res  *tsql.Result
		err  error
	}
	legs := []leg{{"read path", rRes, rErr}}
	// Below the result cache, under a partial key nothing else uses: the
	// first execution finds nothing memoized, the second what the first
	// learned.
	_, partialFP := qDef.Fingerprints()
	key := fmt.Sprintf("%s#cold%d", partialFP, diffColdKeys.Add(1))
	var stats [2]vec.ExecStats // cold, warm
	for j, temp := range []string{"cold", "warm"} {
		res, _, st, err := e.executeAggregate(ctx, v, qDef, key)
		legs = append(legs, leg{temp, res, err})
		stats[j] = st
	}

	tally.statements++
	for _, l := range legs {
		if (wantErr != nil) != (l.err != nil) || (wantErr != nil && wantErr.Error() != l.err.Error()) {
			t.Fatalf("%q: divergent errors:\n  definition: %v\n  %s: %v", base+lim, wantErr, l.name, l.err)
		}
	}
	if wantErr != nil {
		tally.failed++
		return false
	}
	// The aggregate runs on the access path the store's order licenses for
	// the clamp, which is what bounds its chunk loop.
	wantLeaf := plan.FullScan
	if pq := tsql.PlanQuery(qDef); pq.Kind == plan.QTimeslice || pq.Kind == plan.QVTRange {
		switch a := v.engine.Access(); {
		case a.Org == plan.OrgVTLog:
			wantLeaf = plan.VTBinarySearch
		case a.Org == plan.OrgTTLog && a.HasOffsetBounds:
			wantLeaf = plan.TTWindowPushdown
		}
	}
	if r := rNode.Leaf().Kind; r != wantLeaf {
		t.Fatalf("%q compiled to %v; want %v", base+lim, r, wantLeaf)
	}
	for _, l := range legs {
		if !reflect.DeepEqual(want, l.res) {
			t.Fatalf("%q: %s diverges from the definition\ndefinition: %+v\n%s: %+v\nplan:\n%s",
				base+lim, l.name, want, l.name, l.res, rNode.Render())
		}
	}
	// A warm execution sees the same chunks and visits no more rows.
	cold, warm := stats[0], stats[1]
	if cold.RunsMerged != 0 || warm.RunsMerged+warm.RunsFolded != cold.RunsFolded || warm.Rows > cold.Rows {
		t.Fatalf("%q: cold %+v, warm %+v", base+lim, cold, warm)
	}
	tally.coldFolded += cold.RunsFolded
	tally.warmFolded += warm.RunsFolded
	tally.warmMerged += warm.RunsMerged
	tally.warmGroups += warm.GroupsMerged
	return true
}

// clampEnds maps an element to the clamp ends that put the relation's access
// path bound exactly at it: the clamp [lo(a), hi(b)) makes the bounded reader
// start at a's chunk and stop before b's.
type clampEnds func(*element.Element) (lo, hi int64)

// vtStarts are the vt-ordered log's ends: its search is by valid time.
func vtStarts(e *element.Element) (int64, int64) {
	s := int64(e.VT.Start())
	return s, s
}

// ttWindowEnds are the bounded class's ends: a clamp [lo, hi) is searched as
// the tt-window [lo − boundedOff, hi − 1 + boundedOff].
func ttWindowEnds(e *element.Element) (int64, int64) {
	tt := int64(e.TTStart)
	return tt + boundedOff, tt - boundedOff
}

// diffClamps lists the clamps a bounded chunk loop must get right on v: one
// whose ends are chunk boundaries, one at the valid time of a chunk's last
// element and one at its successor's, one inside one chunk, one before the
// first element, one past the last (vtHi is the valid-time high-water mark),
// and one that holds no element — a gap between two consecutive stored
// elements, empty on the ordered classes (the parser refuses an empty
// window). Windows that come out empty on a disordered history are left out.
func diffClamps(v *readView, ends clampEnds, vtHi int64) []string {
	els := v.elems()
	var out []string
	add := func(lo, hi int64) {
		if lo < hi {
			out = append(out, fmt.Sprintf("[%d, %d)", lo, hi))
		}
	}
	if len(els) > 2*vec.BatchSize {
		lo, _ := ends(els[vec.BatchSize])
		_, hi := ends(els[2*vec.BatchSize])
		add(lo, hi)
		for _, e := range els[vec.BatchSize-1 : vec.BatchSize+1] {
			at := int64(e.VT.Start())
			add(at, at+1)
		}
		lo, _ = ends(els[vec.BatchSize+44])
		add(lo, lo+20)
	}
	first := int64(els[0].VT.Start())
	for _, e := range els {
		first = min(first, int64(e.VT.Start()))
	}
	add(first-400, first)
	add(vtHi+10, vtHi+400)
	for i := 1; i+1 < len(els); i++ {
		end := int64(els[i].VT.End())
		if els[i].VT.IsEvent() {
			end++
		}
		if next := int64(els[i+1].VT.Start()); next > end {
			add(end, next)
			break
		}
	}
	return out
}

// runClamps runs each clamp through runDiff — through the read path and cold
// and warm below it — current and under AS OF.
func runClamps(t *testing.T, e *Entry, clamps []string, tally *diffTally) {
	t.Helper()
	asOf := horizonOf(e.view.Load())
	for _, clamp := range clamps {
		for _, from := range []string{e.Name(), fmt.Sprintf("%s as of %d", e.Name(), asOf)} {
			runDiff(t, e, "select count(*), sum(v_int), max(v_str) from "+from+" when valid during "+clamp+" group by window(100)", "", tally)
		}
	}
}

// diffLifecycle is what happens to a relation between rounds of
// statements: every way a run partial stops being valid, and the append
// that leaves them all valid.
var diffLifecycle = []struct {
	name string
	do   func(t *testing.T, d *diffRel)
}{
	{"built", func(*testing.T, *diffRel) {}},
	// Each close bumps one sealed run's close count; the rest stay valid.
	{"closes-in-sealed-runs", func(t *testing.T, d *diffRel) { d.closeSome(12, true) }},
	{"append", func(t *testing.T, d *diffRel) { d.appendOrdered(t, 40) }},
	// A chunk fills and nothing seals it: a unit all the same, on every
	// organization, with the closes it took as the tail counted.
	{"append-a-chunk-unsealed", func(t *testing.T, d *diffRel) {
		d.appendOrdered(t, 300)
		d.closeSome(6, true)
	}},
	{"append-and-seal", func(t *testing.T, d *diffRel) {
		d.appendOrdered(t, 300)
		d.seal(t)
	}},
	{"vacuum", func(t *testing.T, d *diffRel) {
		// Everything closed so far is dead at this horizon: a removing
		// vacuum rebuilds the store, and with it the run ordinals.
		gen := d.e.view.Load().gen
		n, err := d.e.Vacuum(chronon.Chronon(1 << 40))
		if err != nil {
			t.Fatalf("Vacuum: %v", err)
		}
		if n == 0 || d.e.view.Load().gen == gen {
			t.Fatalf("vacuum removed %d versions and kept the store generation", n)
		}
		d.seal(t)
	}},
	{"closes-then-reseal", func(t *testing.T, d *diffRel) {
		// Close into run 0, damage its zone map — its least tt⊢, on the
		// general relation its valid-time envelope — and let the repair
		// rebuild it: a partial memoized over the damaged zone map must not
		// be taken for the repaired chunk's.
		els := current(d.e).Elements
		for i := 0; i < 3; i++ {
			_ = remove(d.e, els[i].ES)
		}
		gen := d.e.view.Load().gen
		_ = d.e.locked.Exclusive(func(*relation.Relation) error {
			corrupted := storage.CorruptTT(d.e.engine.Store(), 0, false, 40)
			if d.general {
				corrupted = storage.CorruptZone(d.e.engine.Store(), 0, false, 40)
			}
			if !corrupted {
				t.Fatalf("%s has no run to corrupt", d.e.Name())
			}
			return nil
		})
		rep, err := d.c.VerifyRelation(d.e.Name())
		if err != nil || rep.Repaired == 0 {
			t.Fatalf("VerifyRelation: %+v, %v", rep, err)
		}
		if d.e.view.Load().gen == gen {
			t.Fatal("a run repair kept the store generation")
		}
	}},
	{"disorder-and-respecialize", func(t *testing.T, d *diffRel) {
		// Out-of-order rewrites: the vt-ordered logs degrade to the general
		// organization mid-step (a new store); then seal whatever is left.
		d.closeSome(12, false)
		d.seal(t)
	}},
	// Past sixteen full chunks: the first aligned group, whose partial a
	// warm leg builds from the chunks' and merges in their place.
	{"append-a-group", func(t *testing.T, d *diffRel) {
		d.appendOrdered(t, 16*vec.BatchSize)
		d.seal(t)
	}},
}

// TestDifferentialRowColumnar is the seeded sweep: every history class ×
// both valid-time kinds × every lifecycle step × a random query mix; the
// definition against the chunk loop (as found, cold and warm). The name
// predates the single fold kernel.
func TestDifferentialRowColumnar(t *testing.T) {
	classes := []string{"degenerate", "sequential", "vtregular", "degraded", "random", "ledger", "bounded", "relabelled"}
	stamps := []struct {
		kind element.TimestampKind
		name string
	}{
		{element.EventStamp, "ev"},
		{element.IntervalStamp, "iv"},
	}
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := New(cachedConfig(t.TempDir()))
			rng := rand.New(rand.NewSource(seed))
			var tally diffTally
			for _, st := range stamps {
				for _, class := range classes {
					if (class == "bounded" || class == "relabelled") && st.kind != element.EventStamp {
						continue // the offset bound is an event specialization
					}
					name := fmt.Sprintf("d_%s_%s", class, st.name)
					d := buildDiffRelation(t, c, name, class, st.kind, rng)
					ttHi := int64(10 * (diffBuildN + 500)) // logical clock: step 10 per transaction
					ok := 0
					for _, step := range diffLifecycle {
						step.do(t, d)
						e, vtHi := d.e, d.vtHi
						if p := e.Physical(); d.general && (p.Compaction.Runs != 0 || p.Org == storage.VTOrdered) {
							t.Fatalf("%s after %s: on %v with %d sealed runs; the leg means the general organization, unsealed", name, step.name, p.Org, p.Compaction.Runs)
						}
						ends := vtStarts
						if d.bounded {
							ends = ttWindowEnds
							if a := e.view.Load().engine.Access(); a.Org != plan.OrgTTLog || !a.HasOffsetBounds {
								t.Fatalf("%s after %s: on %v, bounds %v; the leg means the tt-ordered log with the pushdown", name, step.name, a.Org, a.HasOffsetBounds)
							}
						}
						for i := 0; i < 10; i++ {
							base, lim := genAggQuery(rng, name, st.kind == element.IntervalStamp, vtHi, ttHi)
							if runDiff(t, e, base, lim, &tally) {
								ok++
							}
						}
						// The statements a random draw rarely lines up: one
						// partial key under three window modes and a clamp
						// that contains some runs and cuts others.
						for _, tail := range []string{
							"group by window(100)", "group by window(100, rolling 3)", "group by window(100, cumulative)",
							fmt.Sprintf("when valid during [%d, %d) group by window(100)", vtHi/5, vtHi),
						} {
							runDiff(t, e, "select count(*), sum(v_int), max(v_str) from "+name+" "+tail, "", &tally)
						}
						runClamps(t, e, diffClamps(e.view.Load(), ends, vtHi), &tally)
					}
					if ok == 0 {
						t.Fatalf("%s: no generated query evaluated successfully", name)
					}
				}
			}
			t.Logf("%d statements (%d failing alike): cold folded %d runs; warm merged %d (%d of them as groups of 16), folded %d",
				tally.statements, tally.failed, tally.coldFolded, tally.warmMerged, tally.warmGroups, tally.warmFolded)
			if tally.warmMerged == 0 || tally.warmFolded == 0 || tally.warmGroups == 0 {
				t.Fatalf("sweep exercised only one side of the memo: %+v", tally)
			}
		})
	}
}

// horizonOf is a transaction time inside v's history: that of its middle
// element.
func horizonOf(v *readView) chronon.Chronon {
	els := v.elems()
	return els[len(els)/2].TTStart
}

// TestDifferentialUnderConcurrentMutation repeats the definition comparison
// on pinned snapshot views while writers churn the live entry with inserts,
// deletes, vacuum, compaction and respecialization. The pinned view makes
// the comparison deterministic; the -race build asserts the batch reader
// and the fold never touch mutating state.
//
// It runs twice: on a relation the advisor moves to the vt-ordered log once
// it has seen the seed, and on one declared non-decreasing from the start,
// whose chunks seal into columns as they fill, under the same writers.
func TestDifferentialUnderConcurrentMutation(t *testing.T) {
	for _, declared := range []bool{false, true} {
		t.Run(map[bool]string{false: "advised", true: "declared"}[declared], func(t *testing.T) {
			differentialUnderConcurrentMutation(t, declared)
		})
	}
}

func differentialUnderConcurrentMutation(t *testing.T, declared bool) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(diffSchema("churn", element.EventStamp))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if declared {
		declareNonDecreasing(t, e)
	}
	seedRng := rand.New(rand.NewSource(7))
	var mu sync.Mutex
	var esList []surrogate.Surrogate
	var vtCur int64
	insert := func(rng *rand.Rand) error {
		mu.Lock()
		vtCur += 7
		// Wrap rather than grow forever: the vt extent must stay below
		// width*MaxWindows or the live window(50) query would trip the
		// result-size guard.
		if vtCur > 1<<20 {
			vtCur = 7
		}
		vt := vtCur
		mu.Unlock()
		el, err := insert(e, relation.Insertion{
			VT:      element.EventAt(chronon.Chronon(vt)),
			Varying: diffValues(rng),
		})
		if err != nil {
			return err
		}
		mu.Lock()
		esList = append(esList, el.ES)
		mu.Unlock()
		return nil
	}
	for i := 0; i < 400; i++ {
		if err := insert(seedRng); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
	}
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(seed int64, pause time.Duration, fn func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				fn(rng)
				time.Sleep(pause)
			}
		}()
	}
	// The inserter spends what the reading loop grants it, one chunk an
	// iteration, so the relation's size — and what every leg scans —
	// follows the iteration count, not the machine's insert rate. Left
	// free, it grows the relation during each scan and so lengthens the
	// next one: the running time compounds.
	var budget atomic.Int64
	spent := int64(0)
	spawn(11, time.Millisecond, func(rng *rand.Rand) {
		for ; spent < budget.Load(); spent++ {
			_ = insert(rng)
		}
	})
	spawn(12, time.Millisecond, func(rng *rand.Rand) {
		mu.Lock()
		var es surrogate.Surrogate
		if len(esList) > 0 {
			es = esList[rng.Intn(len(esList))]
		}
		mu.Unlock()
		if es != 0 {
			_ = remove(e, es) // repeats legitimately fail; the race detector is the assertion
		}
	})
	spawn(13, time.Millisecond, func(*rand.Rand) { e.Compact() })
	spawn(14, 2*time.Millisecond, func(*rand.Rand) { _, _, _ = e.Respecialize() })
	var horizon int64
	spawn(15, 2*time.Millisecond, func(*rand.Rand) {
		horizon += 10
		_, _ = e.Vacuum(chronon.Chronon(horizon))
	})

	bases := []string{
		"select count(*), sum(v_int) from churn group by window(50)",
		"select min(v_int), max(v_float) from churn when valid during [100, 2000) group by window(100)",
		"select count(v_str) from churn as of 1500 group by window(64, rolling 3)",
		"select sum(v_float) from churn where v_int > 0 group by window(128, cumulative)",
		// The bounded reader under the churn: on the vt-ordered log the row
		// leaf is the binary search, which starts and stops the chunk loop.
		"select count(*), sum(v_int) from churn when valid during [2800, 9000) group by window(256)",
	}
	ctx := context.Background()
	var owed []func() // definition legs, below the catalog: no reader, no plan
	for i := 0; i < 200; i++ {
		budget.Add(256)
		base := bases[i%len(bases)]
		q, err := tsql.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		// Pin one published view: the fold and the definition read the same
		// snapshot no matter what the writers do meanwhile.
		v := e.view.Load()
		event := v.schema.ValidTime == element.EventStamp
		spec, err := tsql.BuildAggSpec(q, v.schema)
		if err != nil {
			t.Fatal(err)
		}
		node := tsql.Compile(q, v.engine.Access())
		rRes, _, rErr := v.engine.AggregateCtx(ctx, node, spec, event, nil)
		// The definition leg is owed on every 25th view and paid after the
		// churn stops, off the loop the mutators run beside.
		if i%25 == 0 {
			owed = append(owed, func() {
				dRes, dErr := vec.RowAggregateRuns(ctx, spec, storage.Runs(v.engine.Store()))
				if (dErr != nil) != (rErr != nil) || (dErr != nil && dErr.Error() != rErr.Error()) || (dErr == nil && !reflect.DeepEqual(dRes, rRes)) {
					t.Fatalf("iteration %d %q: the fold diverged from the definition on a pinned view\ndefinition: %+v (%v)\nfold:       %+v (%v)",
						i, base, dRes, dErr, rRes, rErr)
				}
			})
		}
		// Also drive the public read path under churn; epochs move between
		// the two calls, so only clean execution is asserted here.
		if i%8 == 0 {
			if _, _, _, err := e.SelectCtx(ctx, q); err != nil {
				t.Fatalf("live SelectCtx: %v", err)
			}
			// The element reads' memo beside the writers: on the pinned view —
			// by now several epochs old, perhaps a store generation old — what
			// is copied out of the chunk images is what encoding gives.
			pq := plan.Query{Kind: plan.QCurrent}
			if i%16 == 0 {
				pq = plan.Query{Kind: plan.QRollback, TT: int64(horizonOf(v))}
			}
			res, _, _ := v.engine.Answer(pq)
			if spliced, plain := e.bothEncodings(t, v, &res); !bytes.Equal(spliced, plain) {
				t.Fatalf("iteration %d: the spliced answer of a pinned view is not its encoded scan", i)
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, pay := range owed {
		pay()
	}
}

// TestDifferentialRebuiltAggregates is the sweep for answers rebuilt from
// kept cells: on the heap, the tt-ordered log and the vt-ordered log, event
// and interval relations, write → aggregate sequences — inserts and batches
// inside and outside the answers' clamps, intervals across several windows,
// open-ended intervals, deletes and modifies anywhere — each followed by a
// palette of statements through the catalog: tumbling, rolling and
// cumulative, unclamped, clamped on window edges and across them, with and
// without WHERE. Every answer, rebuilt or folded whole, is held to the
// definition on the view it was computed at, errors included, and its
// touched rows to what it folded; the sweep must have rebuilt answers by
// folding windows again and copying others, and fallen back to the whole
// loop.
func TestDifferentialRebuiltAggregates(t *testing.T) {
	const span, width = 6000, 100
	for _, org := range []struct {
		name  string
		kind  storage.Kind
		stamp element.TimestampKind
	}{
		{"heap-ev", storage.Heap, element.EventStamp},
		{"heap-iv", storage.Heap, element.IntervalStamp},
		{"ttlog-ev", storage.TTOrdered, element.EventStamp},
		{"ttlog-iv", storage.TTOrdered, element.IntervalStamp},
		{"vtlog-ev", storage.VTOrdered, element.EventStamp},
	} {
		t.Run(org.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(org.name)) * 7919))
			c := New(cachedConfig(t.TempDir()))
			e, err := c.Create(diffSchema("r", org.stamp))
			if err != nil {
				t.Fatal(err)
			}
			ordered := org.kind == storage.VTOrdered
			head := int64(0) // the vt-ordered relation's last valid time
			stamp := func() element.Timestamp {
				if ordered {
					head += rng.Int63n(4)
					return element.EventAt(chronon.Chronon(head))
				}
				lo := rng.Int63n(span)
				if org.stamp == element.EventStamp {
					return element.EventAt(chronon.Chronon(lo))
				}
				switch rng.Intn(10) {
				case 0:
					return element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+1+rng.Int63n(5*width))) // across windows
				}
				return element.SpanOf(chronon.Chronon(lo), chronon.Chronon(lo+1+rng.Int63n(width/2)))
			}
			var live []surrogate.Surrogate
			var open surrogate.Surrogate // the open-ended interval, while there is one
			batch := func(n int) {
				ins := make([]relation.Insertion, n)
				for i := range ins {
					ins[i] = relation.Insertion{VT: stamp(), Varying: diffValues(rng)}
				}
				res, err := e.InsertBatch(context.Background(), ins, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range res.Items {
					live = append(live, it.Elem.ES)
				}
			}
			batch(4096 + 300) // sixteen chunks and more: groups, chunks, a tail
			switch org.kind {
			case storage.Heap:
				onTheHeap(t, e)
			case storage.VTOrdered:
				if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)}); err != nil {
					t.Fatal(err)
				}
				e.Compact()
			}
			if got := e.Physical().Org; got != org.kind {
				t.Fatalf("set-up left the relation on %v", got)
			}
			var palette []string
			for _, mode := range []string{"", ", rolling 4", ", cumulative"} {
				for _, tail := range []string{
					"",
					fmt.Sprintf(" when valid during [%d, %d)", 10*width, 40*width),
					fmt.Sprintf(" when valid during [%d, %d)", 10*width+37, 40*width-13),
					" where v_int > 20",
					fmt.Sprintf(" where v_str = 'b' when valid during [%d, %d)", 20*width+50, 55*width), // one side cut
				} {
					palette = append(palette, fmt.Sprintf("select count(*), sum(v_int), max(v_str) from r%s group by window(%d%s)", tail, width, mode))
				}
			}
			palette = append(palette, fmt.Sprintf("select min(v_int), count(v_float) from r when valid during [0, %d) group by window(%d, rolling 3)", span, 3*width))
			ask := func(src string) {
				t.Helper()
				q, err := tsql.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				before, hits := e.BatchStats(), c.Cache().Stats().Hits
				res, _, touched, ep, err := e.SelectEpochCtx(context.Background(), q)
				v := e.view.Load()
				if v.epoch != ep {
					t.Fatalf("%s: answered at epoch %d, the view is at %d", src, ep, v.epoch)
				}
				want, wantErr := v.defined(q)
				if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s: divergent errors: %v, definition %v", src, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Fatalf("%s at epoch %d: diverges from the definition\n got  %v\n want %v", src, ep, res.Rows, want.Rows)
				}
				// An executed answer's touched is the rows it folded; a cached
				// one's is the execution's that computed it.
				if after := e.BatchStats(); err == nil && c.Cache().Stats().Hits == hits && int64(touched) != after.Rows-before.Rows {
					t.Fatalf("%s: touched %d, folded %d", src, touched, after.Rows-before.Rows)
				}
			}
			for _, src := range palette {
				ask(src)
			}
			for round := 0; round < 120; round++ {
				switch p := rng.Intn(100); {
				case p < 35:
					batch(1)
				case p < 50:
					batch(1 + rng.Intn(40))
				case p < 70 && len(live) > 0:
					i := rng.Intn(len(live))
					if err := remove(e, live[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i:i], live[i+1:]...)
				case p < 85 && len(live) > 0:
					i := rng.Intn(len(live))
					el, err := modify(e, live[i], stamp(), diffValues(rng))
					if err != nil {
						t.Fatal(err)
					}
					live[i] = el.ES
				case p < 88:
					publishEverything(t, e)
				case p < 94 && org.stamp == element.IntervalStamp:
					// An open-ended interval: every unclamped answer fails
					// until it is closed again, every clamped one holds it.
					if open == 0 {
						el, err := insert(e, relation.Insertion{VT: element.SpanOf(chronon.Chronon(rng.Int63n(span)), chronon.Forever), Varying: diffValues(rng)})
						if err != nil {
							t.Fatal(err)
						}
						open = el.ES
					} else {
						if err := remove(e, open); err != nil {
							t.Fatal(err)
						}
						open = 0
					}
				default:
					batch(1)
				}
				for _, src := range palette {
					if rng.Intn(3) != 0 {
						ask(src)
					}
				}
			}
			st := e.BatchStats()
			t.Logf("%d rebuilt: %d windows refolded, %d reused; %d chunks merged (%d groups), %d folded", st.Rebuilt, st.WindowsRefolded, st.WindowsReused, st.RunsMerged, st.GroupsMerged, st.RunsFolded)
			if st.Rebuilt == 0 || st.WindowsRefolded == 0 || st.WindowsReused == 0 || st.GroupsMerged == 0 {
				t.Fatalf("the sweep did not rebuild answers and take the whole loop: %+v", st)
			}
			if got := e.Physical().Org; got != org.kind {
				t.Fatalf("the writes moved the relation to %v", got)
			}
		})
	}
}
