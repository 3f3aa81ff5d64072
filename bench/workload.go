package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"repro/internal/core"
	"repro/internal/workload"
)

// opKind is one kind of generated request.
type opKind uint8

const (
	opInsert opKind = iota
	opModify
	opDelete
	opBatch
	opCurrent
	opTimeslice
	opRollback
	opAsOf
	opAgg
	// opAdvise is a control op, not a request of the mix: one advisor pass
	// (re-advise, migrate, compact) through /_bench/advise. It is neither
	// timed nor counted, but it sits at a fixed place in the op list, so the
	// background work it stands for repeats exactly from run to run.
	opAdvise
)

var opKindNames = [...]string{"insert", "modify", "delete", "batch", "current", "timeslice", "rollback", "asof", "agg", "advise"}

func (k opKind) String() string { return opKindNames[k] }

// opClass groups kinds into the four latency classes the end-to-end
// metrics report.
type opClass uint8

const (
	classWrite opClass = iota // single-element insert / modify / delete
	classRead                 // current / time-slice / rollback / as-of
	classAgg                  // tsql window aggregates
	classBatch                // 256-element InsertBatch
	numClasses
)

var classNames = [numClasses]string{"write", "read", "agg", "batch"}

func (k opKind) class() opClass {
	switch k {
	case opInsert, opModify, opDelete:
		return classWrite
	case opBatch:
		return classBatch
	case opAgg:
		return classAgg
	}
	return classRead
}

// stamp is a generated element: its valid extent and its one value.
type stamp struct {
	vtLo, vtHi int64
	val        int64
}

// op is one generated request in the generator's own vocabulary. It names
// elements by creation ordinal and transaction times by sequence number,
// never by anything the server minted, so the same seed gives the same list
// and the same opstream_sha256 whatever the server answers.
type op struct {
	kind   opKind
	st     stamp   // insert, modify
	target int     // modify, delete: ordinal of the element
	batch  []stamp // batch
	vt     int64   // timeslice, asof
	seq    int     // rollback, asof: the tick whose transaction time is asked
	agg    aggSpec // agg
	// cached sends a read through the client's conditional GET (ETag/304);
	// otherwise it is a plain POST, which the server's result cache serves.
	cached bool
	// twin marks an aggregate whose rows must equal the previous op's: the
	// USING ROW run of the statement the planner just ran its own way.
	twin bool
}

func (o *op) hashInto(h hash.Hash) {
	fmt.Fprintf(h, "%d|%d,%d,%d|%d|%d|%d|%v|%v|%+v\n", o.kind, o.st.vtLo, o.st.vtHi, o.st.val,
		o.target, o.vt, o.seq, o.cached, o.twin, o.agg)
	for _, s := range o.batch {
		fmt.Fprintf(h, "b%d,%d,%d\n", s.vtLo, s.vtHi, s.val)
	}
}

const batchSize = 256

// warmupOps run after preload and before the measured phase; they are part
// of the op list (and of its hash) but not of any statistic.
const warmupOps = 300

// spec is one workload: what it preloads, how fast this sandbox runs it,
// and how its mix is drawn.
type spec struct {
	name     string
	rel      string
	interval bool // interval-stamped (else event-stamped)
	declare  bool // declare globally non-decreasing, licensing the vt-ordered log
	preload  int
	// opsPerSecond is the measured op count per second of --seconds,
	// calibrated once on the 2-core sandbox so the measured phase lasts
	// about --seconds, then frozen: the op list is fixed by (seed, seconds),
	// never time-boxed.
	opsPerSecond int
	// adviseEvery puts an opAdvise before every op whose index is a
	// multiple of it; 0 leaves advising to next.
	adviseEvery int
	// refBurst is how many reference requests follow every four measured
	// ops. One is the protocol; workloads whose ops take milliseconds issue
	// few ops per second, and take four so that the reference's own p95 —
	// the divisor of every p95 — rests on enough samples.
	refBurst int
	next     func(g *gen) op
	stampAt  func(g *gen) stamp
}

var specs = []*spec{
	{
		name: "sensor-append", rel: "sensor", declare: true, preload: 50_000,
		opsPerSecond: 850, adviseEvery: 2048, refBurst: 1,
		next: nextSensorAppend, stampAt: sensorStamp,
	},
	{
		name: "ledger-general", rel: "ledger", interval: true, preload: 20_000,
		opsPerSecond: 240, refBurst: 4,
		next: nextLedgerGeneral, stampAt: ledgerStamp,
	},
	{
		name: "dashboard-hot", rel: "sensor", declare: true, preload: 50_000,
		opsPerSecond: 1350, refBurst: 1,
		next: nextDashboardHot, stampAt: sensorStamp,
	},
	{
		name: "firehose-analytics", rel: "sensor", declare: true, preload: 100_000,
		opsPerSecond: 210, refBurst: 4,
		next: nextFirehose, stampAt: sensorStamp,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// gen draws a workload's op list. It carries its own copy of the model,
// advanced abstractly (no surrogates, no transaction times), so targets
// and query points depend only on the seed.
type gen struct {
	sp   *spec
	rng  *rand.Rand
	sim  *model
	head int64 // next event valid time (sensor) or stamp index (ledger)
	// since lists the read fingerprints issued since the last write. A
	// workload that must never hit the result cache re-draws on a repeat.
	since map[string]bool
	mix   *deck
	// ledger
	general []core.Stamp
	// dashboard
	palette []op
	zipf    *rand.Zipf
	// firehose
	step, batches     int
	extraDue, advised bool
	lastClamp         aggSpec
}

func newGen(sp *spec, seed int64) *gen {
	g := &gen{sp: sp, rng: rand.New(rand.NewSource(seed)), sim: newModel(), since: map[string]bool{}}
	if sp.interval {
		// The repository's own general generator: valid times up to 300
		// chronons before or after their transaction time, 50 apart.
		g.general = workload.EventStamps(core.General, workload.Config{Seed: seed, N: ledgerStamps, Step: ledgerStep})
	}
	return g
}

// revealed marks a simulated tick as one whose transaction time the server
// will reveal (the value itself is irrelevant to the generator).
const revealed = 1

func (g *gen) preloadStamps() []stamp {
	out := make([]stamp, g.sp.preload)
	for i := range out {
		out[i] = g.sp.stampAt(g)
		g.sim.insert(0, out[i].vtLo, out[i].vtHi, out[i].val, revealed)
	}
	return out
}

// apply advances the generator's simulation by one generated op.
func (g *gen) apply(o *op) {
	switch o.kind {
	case opInsert:
		g.sim.insert(0, o.st.vtLo, o.st.vtHi, o.st.val, revealed)
	case opModify:
		g.sim.modify(o.target, 0, o.st.vtLo, o.st.vtHi, o.st.val, revealed)
	case opDelete:
		g.sim.remove(o.target)
	case opBatch:
		for _, s := range o.batch {
			g.sim.insert(0, s.vtLo, s.vtHi, s.val, revealed)
		}
	default:
		return
	}
	clear(g.since)
}

// ops draws n requests (plus the advisor passes between them) after the
// preload and hashes the whole stream.
func (g *gen) ops(n int) ([]op, string) {
	h := sha256.New()
	for i := range g.sim.vers {
		v := &g.sim.vers[i]
		fmt.Fprintf(h, "p%d,%d,%d\n", v.vtLo, v.vtHi, v.val)
	}
	out := make([]op, 0, n+n/64)
	for i := 0; i < n; {
		var o op
		if g.sp.adviseEvery > 0 && i > 0 && i%g.sp.adviseEvery == 0 && out[len(out)-1].kind != opAdvise {
			o = op{kind: opAdvise}
		} else {
			o = g.sp.next(g)
		}
		if o.kind != opAdvise {
			i++
		}
		g.apply(&o)
		o.hashInto(h)
		out = append(out, o)
	}
	return out, hex.EncodeToString(h.Sum(nil))
}

// deck deals a mix in exact proportions: every pass through its cards
// holds each kind as often as the mix says, in an order drawn from the
// seed. Independent draws would let one seed issue a few percent more
// batches than another, and every metric that depends on the mix (the mean,
// CPU per op, memory, recovery) would carry that as noise between seeds.
type deck struct {
	cards []int
	next  int
}

// newDeck holds counts[i] cards of kind i.
func newDeck(counts ...int) *deck {
	d := &deck{}
	for kind, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, kind)
		}
	}
	return d
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// ---- sensor relation (sensor-append, dashboard-hot, firehose-analytics)

// sensorStamp is the paper's monitoring relation: one reading per event,
// valid times strictly increasing, about ten chronons apart.
func sensorStamp(g *gen) stamp {
	g.head += 1 + g.rng.Int63n(19)
	return stamp{vtLo: g.head, vtHi: g.head + 1, val: g.rng.Int63n(1000)}
}

func (g *gen) headInsert() op { return op{kind: opInsert, st: sensorStamp(g)} }

func (g *gen) headBatch() op {
	b := make([]stamp, batchSize)
	for i := range b {
		b[i] = sensorStamp(g)
	}
	return op{kind: opBatch, batch: b}
}

func (g *gen) liveTarget() int { return g.sim.live[g.rng.Intn(len(g.sim.live))] }

// pastVT is the valid time of a uniformly chosen stored version.
func (g *gen) pastVT() int64 { return g.sim.vers[g.rng.Intn(len(g.sim.vers))].vtLo }

// earlySeq is a revealed tick among the first 64 transactions. Rollback to
// it returns a short prefix of the history: the query exercises the
// transaction-time access path without shipping half the relation back.
func (g *gen) earlySeq() int { return g.sim.known[g.rng.Intn(min(64, len(g.sim.known)))] }

// fresh re-draws a read until its fingerprint has not been issued since
// the last write, so it cannot be served from the result cache.
func (g *gen) fresh(draw func() op) op {
	for {
		if o := draw(); g.unseen(&o) {
			return o
		}
	}
}

// unseen reports whether the read has not been issued since the last write,
// and books it.
func (g *gen) unseen(o *op) bool {
	fp := fmt.Sprintf("%d|%d|%d|%+v", o.kind, o.vt, o.seq, o.agg)
	if g.since[fp] {
		return false
	}
	g.since[fp] = true
	return true
}

// sensor-append per hundred requests: 50 head inserts, 20 time-slices at a
// uniform past valid time, 10 rollbacks, 10 tumbling counts over the newest
// 4096 chronons, 5 deletes, 5 batches.
func nextSensorAppend(g *gen) op {
	if g.mix == nil {
		g.mix = newDeck(50, 20, 10, 10, 5, 5)
	}
	switch g.mix.deal(g.rng) {
	case 0:
		return g.headInsert()
	case 1:
		return g.fresh(func() op { return op{kind: opTimeslice, vt: g.pastVT()} })
	case 2:
		return g.fresh(func() op { return op{kind: opRollback, seq: g.earlySeq()} })
	case 3:
		// The statement only changes when the head moves; asked twice
		// between two writes it would hit the result cache, so a repeat
		// takes the next window width instead.
		for _, width := range []int64{256, 128, 512, 64, 1024, 32} {
			o := op{kind: opAgg, agg: aggSpec{fn: "count", star: true, width: width, mode: "tumbling",
				clamp: true, lo: g.head + 1 - 4096, hi: g.head + 1}}
			if g.unseen(&o) {
				return o
			}
		}
		panic("six aggregates in a row between two writes")
	case 4:
		return op{kind: opDelete, target: g.liveTarget()}
	default:
		return g.headBatch()
	}
}

// ---- dashboard-hot

const paletteSize = 64

// buildPalette fixes the dashboard's 64 queries over the preloaded
// relation: 48 element reads and 16 window aggregates, interleaved so the
// Zipf head holds both.
func (g *gen) buildPalette() {
	span := g.head
	for i := 0; i < paletteSize; i++ {
		var o op
		switch i % 4 {
		case 0:
			o = op{kind: opTimeslice, vt: g.pastVT()}
		case 1:
			// The k-th rollback of the palette returns the first 4k
			// elements: what a query costs must depend on its rank in the
			// palette, not on the seed, or seeds are not comparable.
			o = op{kind: opRollback, seq: g.sim.known[i]}
		case 2:
			o = op{kind: opAsOf, vt: g.pastVT(), seq: g.sim.known[g.rng.Intn(len(g.sim.known))]}
		default:
			lo := g.rng.Int63n(span / 2)
			a := aggSpec{width: 4096, mode: "tumbling", clamp: true, lo: lo, hi: lo + span/4}
			switch (i / 4) % 4 {
			case 0:
				a.fn, a.star = "count", true
			case 1:
				a.fn = "sum"
			case 2:
				a.fn, a.mode, a.k = "max", "rolling", 8
			default:
				a.fn, a.star, a.mode = "count", true, "cumulative"
			}
			o = op{kind: opAgg, agg: a}
		}
		g.palette = append(g.palette, o)
	}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, paletteSize-1)
}

func nextDashboardHot(g *gen) op {
	if g.palette == nil {
		g.buildPalette()
	}
	if g.mix == nil {
		g.mix = newDeck(4, 96)
	}
	if g.mix.deal(g.rng) == 0 {
		return g.headInsert()
	}
	o := g.palette[g.zipf.Uint64()]
	o.cached = g.rng.Intn(2) == 0
	return o
}

// ---- firehose-analytics

// nextFirehose cycles one batch and six aggregates. After each of them
// (except between a clamped window and its twin) comes a single insert with
// probability 5/18, or a time-slice with the same: the point paths carry
// little of the time but enough requests for their own percentiles. Every
// 16th batch is preceded by an advisor pass.
func nextFirehose(g *gen) op {
	if g.mix == nil {
		g.mix = newDeck(5, 5, 8)
	}
	if g.extraDue {
		g.extraDue = false
		switch g.mix.deal(g.rng) {
		case 0:
			return g.headInsert()
		case 1:
			return op{kind: opTimeslice, vt: g.pastVT()}
		}
	}
	step := g.step
	if step == 0 && g.batches%16 == 15 && !g.advised {
		g.advised = true
		return op{kind: opAdvise}
	}
	g.step = (g.step + 1) % 7
	g.extraDue = true
	whole := aggSpec{width: 16384, mode: "tumbling"}
	switch step {
	case 0:
		g.batches++
		g.advised = false
		return g.headBatch()
	case 1:
		whole.fn, whole.star = "count", true
	case 2:
		whole.fn = "sum"
	case 3:
		whole.fn, whole.mode, whole.k = "max", "rolling", 8
	case 4:
		whole.fn, whole.star, whole.mode = "count", true, "cumulative"
	case 5:
		// One vt-clamped window: the columnar engine loses this case and
		// the planner routes it to rows.
		lo := g.rng.Int63n(g.head - 65536)
		g.lastClamp = aggSpec{fn: "sum", width: 4096, mode: "tumbling", clamp: true, lo: lo, hi: lo + 65536}
		g.extraDue = false // nothing comes between the window and its twin
		return op{kind: opAgg, agg: g.lastClamp}
	default:
		// Its USING ROW twin follows at once and must give the same rows.
		a := g.lastClamp
		a.usingRow = true
		return op{kind: opAgg, agg: a, twin: true}
	}
	return op{kind: opAgg, agg: whole}
}

// ---- ledger-general

const (
	ledgerStamps = 1 << 16 // preload plus far more inserts than any run draws
	ledgerStep   = 50
	ledgerLongN  = 4000 // among the first 4000 elements every second one is long
)

// ledgerStamp is the unspecialized control: interval stamps whose starts
// come from the general generator. Most intervals are short; 1000 early
// ones are 400k chronons long and all cover [200k, 400k), which is where
// the large-result time-slices aim.
func ledgerStamp(g *gen) stamp {
	i := int(g.head)
	g.head++
	lo := max(int64(g.general[i].VT), 0)
	length := 50 + g.rng.Int63n(101)
	if i < ledgerLongN && i%2 == 0 {
		length = 400_000
	}
	return stamp{vtLo: lo, vtHi: lo + length, val: g.rng.Int63n(1000)}
}

// ledger-general per hundred requests: 10 inserts, 10 modifies, 10 deletes,
// 20 small time-slices, 10 as-of, 8 rollbacks, 1 current state, 19
// cumulative sums on the row engine, 12 time-slices with large results.
func nextLedgerGeneral(g *gen) op {
	if g.mix == nil {
		g.mix = newDeck(10, 10, 10, 20, 10, 8, 1, 19, 12)
	}
	// Small time-slices aim past every long interval's end.
	smallVT := func() int64 { return 600_000 + g.rng.Int63n(g.head*ledgerStep-600_000) }
	switch g.mix.deal(g.rng) {
	case 0:
		return op{kind: opInsert, st: ledgerStamp(g)}
	case 1:
		t := g.liveTarget()
		v := g.sim.vers[t]
		lo := max(v.vtLo+g.rng.Int63n(201)-100, 0)
		return op{kind: opModify, target: t, st: stamp{vtLo: lo, vtHi: lo + v.vtHi - v.vtLo, val: g.rng.Int63n(1000)}}
	case 2:
		return op{kind: opDelete, target: g.liveTarget()}
	case 3:
		return op{kind: opTimeslice, vt: smallVT()}
	case 4:
		return op{kind: opAsOf, vt: smallVT(), seq: g.sim.known[g.rng.Intn(len(g.sim.known))]}
	case 5:
		return op{kind: opRollback, seq: g.earlySeq()}
	case 6:
		return op{kind: opCurrent}
	case 7:
		return op{kind: opAgg, agg: aggSpec{fn: "sum", width: 32768, mode: "cumulative", usingRow: true}}
	default:
		return op{kind: opTimeslice, vt: 200_000 + g.rng.Int63n(200_000)}
	}
}
