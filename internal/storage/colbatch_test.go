package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/refmodel"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// batchElems drains a reader, returning the elements its batches carry
// and checking the columns against each element's own timestamps.
func batchElems(t *testing.T, r *BatchReader, event bool) []*element.Element {
	t.Helper()
	var out []*element.Element
	var b vec.Batch
	for {
		ok, err := r.Next(&b)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		for i := 0; i < b.N; i++ {
			e := b.Elems[i]
			if b.TTStart[i] != int64(e.TTStart) || b.TTEnd[i] != int64(e.TTEnd) {
				t.Fatalf("batch tt [%d, %d) disagrees with element [%d, %d)",
					b.TTStart[i], b.TTEnd[i], e.TTStart, e.TTEnd)
			}
			wantEnd := int64(e.VT.End())
			if event {
				wantEnd = int64(e.VT.Start()) + 1
			}
			if b.VTStart[i] != int64(e.VT.Start()) || b.VTEnd[i] != wantEnd {
				t.Fatalf("batch vt [%d, %d) disagrees with element", b.VTStart[i], b.VTEnd[i])
			}
			cp := *e // a sealed unit's rows are the reader's scratch
			out = append(out, &cp)
		}
	}
}

// TestBatchReaderStreamsArrivalOrder holds the reader to the ES-order
// contract over a part-sealed, part-tail log, including after closes inside
// sealed runs.
func TestBatchReaderStreamsArrivalOrder(t *testing.T) {
	st := NewTTLog()
	const n = 3*runSize + 57
	for i := 0; i < n; i++ {
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(10 * (i + 1))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sealed := st.Compact(); sealed != 3*runSize {
		t.Fatalf("sealed %d, want %d", sealed, 3*runSize)
	}
	// Close some elements inside sealed runs: the reader gathers the new
	// tt⊣ from the live rows.
	for _, i := range []int{3, runSize + 9, 2*runSize + 100} {
		orig := st.At(i)
		closed := *orig
		closed.TTEnd = chronon.Chronon(1_000_000)
		st.Replace(orig, &closed)
	}
	got := batchElems(t, NewBatchReader(st, true), true)
	want := Elements(st)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader returned %d elements in wrong order/content (want %d)", len(got), len(want))
	}
}

// TestBatchReaderZoneMapSkips checks every pruning rule skips only runs
// that cannot contribute: the surviving element stream must equal the
// filtered full stream.
func TestBatchReaderZoneMapSkips(t *testing.T) {
	st := NewVTLog()
	const n = 4 * runSize
	for i := 0; i < n; i++ {
		e := &element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(100 * i)),
		}
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Fully close the second run so current-only can prune it.
	for i := runSize; i < 2*runSize; i++ {
		orig := st.At(i)
		closed := *orig
		closed.TTEnd = chronon.Chronon(999_999)
		st.Replace(orig, &closed)
	}
	if st.Compact() == 0 {
		t.Fatal("nothing sealed")
	}

	t.Run("vt-window", func(t *testing.T) {
		r := NewBatchReader(st, true)
		lo, hi := chronon.Chronon(100*runSize), chronon.Chronon(100*(2*runSize))
		r.SetVTWindow(lo, hi)
		got := batchElems(t, r, true)
		if r.Skipped() == 0 {
			t.Error("no runs skipped by vt zone map")
		}
		seen := map[surrogate.Surrogate]bool{}
		for _, e := range got {
			seen[e.ES] = true
		}
		for i := runSize; i < 2*runSize; i++ {
			if !seen[surrogate.Surrogate(i+1)] {
				t.Fatalf("element %d inside the window was pruned", i+1)
			}
		}
	})
	t.Run("current-only", func(t *testing.T) {
		r := NewBatchReader(st, true)
		r.SetCurrentOnly()
		got := batchElems(t, r, true)
		if r.Skipped() == 0 {
			t.Error("fully-closed run not skipped")
		}
		for _, e := range got {
			if e.ES > surrogate.Surrogate(runSize) && e.ES <= surrogate.Surrogate(2*runSize) {
				t.Fatalf("closed-run element %d survived current-only pruning", e.ES)
			}
		}
	})
	t.Run("as-of", func(t *testing.T) {
		for _, tc := range []struct {
			tt      chronon.Chronon
			skipped int
		}{
			{5, 4},               // before every insertion: no chunk has begun
			{1_000_000, 1},       // after the closes: the second chunk is dead
			{999_998, 0},         // just before them: every chunk holds a present element
			{10 * runSize, 3},    // the last element of chunk 0 has begun, no later one
			{10*runSize + 10, 2}, // the first of chunk 1 has begun
		} {
			r := NewBatchReader(st, true)
			r.SetAsOf(tc.tt)
			got := batchElems(t, r, true)
			if r.Skipped() != tc.skipped {
				t.Errorf("as of %v: skipped %d chunks, want %d", tc.tt, r.Skipped(), tc.skipped)
			}
			for _, e := range refmodel.Rollback(Elements(st), tc.tt) {
				if !slices.ContainsFunc(got, func(g *element.Element) bool { return sameVersion(g, e) }) {
					t.Fatalf("as of %v: element %d is present but was pruned", tc.tt, e.ES)
				}
			}
		}
	})
}

func TestSealedInfo(t *testing.T) {
	st := NewTTLog()
	if s, r := SealedInfo(st); s != 0 || r != 0 {
		t.Fatalf("empty store: %d/%d", s, r)
	}
	for i := 0; i < runSize+5; i++ {
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(i + 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	if s, r := SealedInfo(st); s != runSize || r != 1 {
		t.Fatalf("SealedInfo = %d/%d, want %d/1", s, r, runSize)
	}
	if s, r := SealedInfo(NewHeap()); s != 0 || r != 0 {
		t.Fatalf("heap store: %d/%d", s, r)
	}
}

// BenchmarkColumnarScan streams a vt-ordered log through the batch reader,
// gathering every chunk into a batch.
func BenchmarkColumnarScan(b *testing.B) {
	st := benchStore(b, 64*runSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewBatchReader(st, true)
		var batch vec.Batch
		rows := 0
		for {
			ok, err := r.Next(&batch)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			rows += batch.N
		}
		if rows != st.Len() {
			b.Fatalf("streamed %d rows, want %d", rows, st.Len())
		}
	}
}

func benchStore(b *testing.B, n int) *RunStore {
	b.Helper()
	st := NewVTLog()
	for i := 0; i < n; i++ {
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT:      element.EventAt(chronon.Chronon(5 * i)),
			Varying: []element.Value{element.Int(int64(i % 1000))},
		}); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkTemporalAggregateColumnar and ...Row time the engine's two folds
// on the same tumbling COUNT/SUM over 64 sealed chunks of a vt-ordered log:
// from the chunks' columns where they lie (ColAgg.ConsumeCols, what a query
// runs on a sealed chunk), and row at a time over the same chunks
// materialized beforehand (ColAgg.ConsumeRows, what it runs on an element
// chunk) — the S7 experiment's microcosm.
func BenchmarkTemporalAggregateColumnar(b *testing.B) { benchAggregate(b, true) }
func BenchmarkTemporalAggregateRow(b *testing.B)      { benchAggregate(b, false) }

func benchAggregate(b *testing.B, columnar bool) {
	st := benchStore(b, 64*runSize)
	spec := &vec.Spec{Width: 1000, Aggs: []vec.AggCall{
		{Kind: vec.AggCount},
		{Kind: vec.AggSum, Col: "v", Ref: vec.ColRef{Src: vec.ColVarying}},
	}}
	var chunks [][]*element.Element
	Runs(st)(func(run []*element.Element) bool { chunks = append(chunks, run); return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := vec.NewColAgg(spec)
		if err != nil {
			b.Fatal(err)
		}
		var stats vec.ExecStats
		if columnar {
			r := NewBatchReader(st, true)
			r.SetCurrentOnly()
			for {
				if _, ok := r.Advance(); !ok {
					break
				}
				c := r.Cols()
				if c == nil {
					b.Fatal("a chunk of the log is not sealed")
				}
				if err := agg.ConsumeCols(c, &stats); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for _, rows := range chunks {
				if err := agg.ConsumeRows(rows, &stats); err != nil {
					b.Fatal(err)
				}
			}
		}
		res, err := agg.Result()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 || stats.Rows != int64(st.Len()) {
			b.Fatalf("%d windows over %d rows", len(res.Rows), stats.Rows)
		}
	}
}

// sealedEventLog builds a vt-ordered log of n open events (vt = tt = 10·i)
// and seals every full run.
func sealedEventLog(t *testing.T, n int) *RunStore {
	t.Helper()
	st := NewVTLog()
	for i := 0; i < n; i++ {
		if err := st.Insert(&element.Element{
			ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(10 * (i + 1)), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(10 * (i + 1))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	return st
}

func closeAt(st *RunStore, i int, tt chronon.Chronon) {
	orig := st.At(i)
	closed := *orig
	closed.TTEnd = tt
	st.Replace(orig, &closed)
}

// TestRunCloseCounts pins the bookkeeping the aggregate memo is valid by:
// a close bumps the lifetime count of the chunk it lands in and no other,
// sealed, full or the tail, and widens that chunk's greatest closed tt⊣; a
// snapshot keeps the counts (and the elements) it was taken with whichever
// came first; sealing moves no count; and replacing a closed element again
// (not a close) books nothing.
func TestRunCloseCounts(t *testing.T) {
	st := sealedEventLog(t, 2*runSize+40)
	lifetime := func(s *RunStore) []int {
		var out []int
		for k := range s.chunks() {
			out = append(out, s.chunk(k).closes)
		}
		return out
	}
	before := st.Snapshot().(*RunStore)
	closeAt(st, 2*runSize+7, 99_000) // the tail: copies its chunk and the spine
	closeAt(st, runSize+3, 99_001)   // run 1, after the spine was already copied
	mid := st.Snapshot().(*RunStore)
	closeAt(st, runSize+4, 99_002)
	closeAt(st, 5, 99_003)

	if !before.At(runSize+3).Current() || mid.At(runSize+3).Current() || !mid.At(5).Current() {
		t.Fatal("a snapshot's elements moved with the live store")
	}
	if l, m, b := lifetime(st), lifetime(mid), lifetime(before); !reflect.DeepEqual(l, []int{1, 2, 1}) ||
		!reflect.DeepEqual(m, []int{0, 1, 1}) || !reflect.DeepEqual(b, []int{0, 0, 0}) {
		t.Fatalf("lifetime close counts: live %v, mid %v, first %v", l, m, b)
	}
	if got, was := st.chunk(1).ttClosed, mid.chunk(1).ttClosed; got != 99_002 || was != 99_001 || before.chunk(1).ttClosed != chronon.MinChronon {
		t.Fatalf("run 1's greatest closed tt⊣: live %v, mid %v, first %v", got, was, before.chunk(1).ttClosed)
	}
	// Sealing the tail's chunk leaves its lifetime count where it was: the
	// memo's key never goes backwards.
	for st.Len() < 3*runSize {
		n := chronon.Chronon(10 * (st.Len() + 1))
		if err := st.Insert(&element.Element{ES: surrogate.Surrogate(n), OS: 1, TTStart: n, TTEnd: chronon.Forever, VT: element.EventAt(n)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	if life := lifetime(st); !reflect.DeepEqual(life, []int{1, 2, 1}) {
		t.Fatalf("after sealing the tail: lifetime %v", life)
	}
	again := *st.At(5)
	st.Replace(st.At(5), &again)
	if life := lifetime(st); !reflect.DeepEqual(life, []int{1, 2, 1}) || st.chunk(0).ttClosed != 99_003 {
		t.Fatalf("non-close replace moved the counts: lifetime %v, greatest closed tt⊣ %v", life, st.chunk(0).ttClosed)
	}
}

// TestCurrentOnlyPrunesRunsClosedAfterSealing: seal-time anyOpen kept a
// run in play forever once it had one open element; the close count says
// when the last of them has gone.
func TestCurrentOnlyPrunesRunsClosedAfterSealing(t *testing.T) {
	st := sealedEventLog(t, 2*runSize)
	for i := 0; i < runSize-1; i++ {
		closeAt(st, i, 50_000)
	}
	r := NewBatchReader(st, true)
	r.SetCurrentOnly()
	if got := batchElems(t, r, true); len(got) != 2*runSize || r.Skipped() != 0 {
		t.Fatalf("one element still open: read %d elements, skipped %d runs", len(got), r.Skipped())
	}
	closeAt(st, runSize-1, 50_001)
	r = NewBatchReader(st, true)
	r.SetCurrentOnly()
	got := batchElems(t, r, true)
	if r.Skipped() != 1 || len(got) != runSize || !sameVersion(got[0], st.At(runSize)) {
		t.Fatalf("run closed after sealing: read %d elements, skipped %d runs, want %d and 1", len(got), r.Skipped(), runSize)
	}
	// Without the current-only rule the run is still read.
	if got := batchElems(t, NewBatchReader(st, true), true); len(got) != 2*runSize {
		t.Fatalf("unfiltered read returned %d elements", len(got))
	}
}

// TestAdvanceReportsStableRuns: the chunk-granular step visits exactly the
// units Next does, and marks stable the full chunks a current-only read
// sees whole — sealed or not, unless a clamp cuts them (a clamp that misses
// one prunes it, sealed or not) — nothing under AS OF, never the partial
// tail. Closed is the lifetime count: the close that landed in chunk 3 while
// it was the tail counts.
func TestAdvanceReportsStableRuns(t *testing.T) {
	st := sealedEventLog(t, 3*runSize+10) // vt 10 … 7780, runs of 2560 chronons
	closeAt(st, runSize+1, 90_000)
	closeAt(st, 3*runSize+2, 90_001)
	for st.Len() < 4*runSize+10 { // chunk 3 fills, unsealed; a new tail of 10
		n := chronon.Chronon(10 * (st.Len() + 1))
		if err := st.Insert(&element.Element{ES: surrogate.Surrogate(n), OS: 1, TTStart: n, TTEnd: chronon.Forever, VT: element.EventAt(n)}); err != nil {
			t.Fatal(err)
		}
	}
	type unit struct {
		run, closed int
		stable      bool
	}
	walk := func(set func(*BatchReader)) []unit {
		r := NewBatchReader(st, true)
		set(r)
		var out []unit
		var b vec.Batch
		for {
			u, ok := r.Advance()
			if !ok {
				return out
			}
			if err := r.Load(&b); err != nil {
				t.Fatal(err)
			}
			if want := runSize; u.Run >= 0 && (b.N != want || len(r.Rows()) != want || !sameVersion(r.Rows()[0], st.At(u.Run*runSize))) {
				t.Fatalf("run %d loaded %d rows, yields %d", u.Run, b.N, len(r.Rows()))
			}
			out = append(out, unit{u.Run, u.Closed, u.Stable})
		}
	}
	cases := []struct {
		name string
		set  func(*BatchReader)
		want []unit
	}{
		{"current", func(r *BatchReader) { r.SetCurrentOnly() },
			[]unit{{0, 0, true}, {1, 1, true}, {2, 0, true}, {3, 1, true}, {-1, 0, false}}},
		{"clamp", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(2000, 7681) },
			[]unit{{0, 0, false}, {1, 1, true}, {2, 0, true}, {-1, 0, false}}},
		{"clamp-cuts-last-run", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(2570, 7680) },
			[]unit{{1, 1, true}, {2, 0, false}, {-1, 0, false}}},
		{"clamp-covers-unsealed", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(2000, 10241) },
			[]unit{{0, 0, false}, {1, 1, true}, {2, 0, true}, {3, 1, true}, {-1, 0, false}}},
		{"clamp-cuts-unsealed", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(2570, 10240) },
			[]unit{{1, 1, true}, {2, 0, true}, {3, 1, false}, {-1, 0, false}}},
		{"as-of", func(r *BatchReader) { r.SetAsOf(80_000) },
			[]unit{{0, 0, false}, {1, 1, false}, {2, 0, false}, {3, 1, false}, {-1, 0, false}}},
		{"unfiltered", func(*BatchReader) {},
			[]unit{{0, 0, false}, {1, 1, false}, {2, 0, false}, {3, 1, false}, {-1, 0, false}}},
	}
	for _, tc := range cases {
		if got := walk(tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: units %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSeekBounds holds the reader's two bounds to brute force. On a
// vt-ordered log of events (with repeated valid times and gaps), one of
// sequential intervals, and a tt-ordered log, for windows on, beside and
// between chunk boundaries, inside one chunk, before the first element, past
// the last, empty and inverted, a seek yields one contiguous stretch of chunks
// that holds every element the window can reach, begins with a chunk holding
// the first of them and ends with one holding the last — and Skipped counts
// the rest. Where the label promises no such order a seek changes nothing.
func TestSeekBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 5*runSize + 37
	events, intervals, ttlog, heap := NewVTLog(), NewVTLog(), NewTTLog(), NewHeap()
	vt, tt := int64(0), int64(0)
	for i := 0; i < n; i++ {
		vt += 5 * rng.Int63n(3)
		tt += 1 + rng.Int63n(3)
		ev := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: chronon.Chronon(tt), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(vt))}
		iv := *ev
		iv.VT = element.SpanOf(chronon.Chronon(10*i), chronon.Chronon(int64(10*i)+1+rng.Int63n(9)))
		for _, ins := range []struct {
			st Store
			e  *element.Element
		}{{events, ev}, {intervals, &iv}, {ttlog, ev}, {heap, ev}} {
			if err := ins.st.Insert(ins.e); err != nil {
				t.Fatal(err)
			}
		}
	}
	// seek reports the stretch of chunks [a, b) a sought reader yields.
	seek := func(st Store, how func(*BatchReader)) (a, b int) {
		t.Helper()
		r := NewBatchReader(st, true)
		how(r)
		a, b = -1, -1
		for {
			u, ok := r.Advance()
			if !ok {
				break
			}
			k := u.Run
			if k < 0 {
				k = seqOf(st).chunks() - 1
			}
			if a < 0 {
				a = k
			} else if k != b {
				t.Fatalf("yielded chunk %d after %d", k, b-1)
			}
			b = k + 1
		}
		if a < 0 {
			a, b = 0, 0
		}
		if want := seqOf(st).chunks() - (b - a); r.Skipped() != want {
			t.Fatalf("skipped %d of %d chunks, yielded %d", r.Skipped(), seqOf(st).chunks(), b-a)
		}
		return a, b
	}
	// check holds [a, b) to the elements: reach says whether the window can
	// reach one, past whether it lies wholly before the window's start,
	// beyond wholly after its end. An empty stretch need only miss nothing.
	check := func(what string, st Store, a, b int, reach, past, beyond func(*element.Element) bool) {
		t.Helper()
		s := seqOf(st)
		for i := 0; i < s.n; i++ {
			e, k := s.At(i), i/runSize
			switch {
			case reach(e) && (k < a || k >= b):
				t.Fatalf("%s: element %d in chunk %d is outside the yielded chunks [%d, %d)", what, i, k, a, b)
			case a < b && (k < a && !past(e) || k >= b && !beyond(e)):
				t.Fatalf("%s: element %d in unyielded chunk %d may still meet the window", what, i, k)
			}
		}
		if a < b && (allOf(s.materialize(a), past) || allOf(s.materialize(b-1), beyond)) {
			t.Fatalf("%s: yielded [%d, %d) is wider than the elements the window can reach", what, a, b)
		}
	}
	// edges lists the chronons key gives the first and last element of each
	// chunk, and their neighbours: where an off-by-one in a bound shows.
	edges := func(st Store, key func(*element.Element) chronon.Chronon) []int64 {
		var out []int64
		for k := range seqOf(st).chunks() {
			run := seqOf(st).materialize(k)
			for _, e := range []*element.Element{run[0], run[len(run)-1]} {
				at := int64(key(e))
				out = append(out, at-1, at, at+1)
			}
		}
		return out
	}
	vtStart := func(e *element.Element) chronon.Chronon { return e.VT.Start() }
	for _, c := range []struct {
		name string
		st   *RunStore
	}{{"events", events}, {"intervals", intervals}} {
		st, ends := c.st, edges(c.st, vtStart)
		for i := 0; i < 400; i++ {
			lo := ends[rng.Intn(len(ends))]
			hi := lo + rng.Int63n(3000) - 20 // some empty and inverted
			if i%5 == 0 {
				hi = ends[rng.Intn(len(ends))]
			}
			switch i {
			case 0:
				lo, hi = -500, -100 // before the first element
			case 1:
				lo, hi = 1<<40, 1<<41 // past the last
			}
			a, b := seek(st, func(r *BatchReader) { r.SeekVT(chronon.Chronon(lo), chronon.Chronon(hi)) })
			check(fmt.Sprintf("%s vt [%d, %d)", c.name, lo, hi), st, a, b,
				func(e *element.Element) bool {
					return refmodel.ValidDuring(e, chronon.Chronon(lo), chronon.Chronon(hi))
				},
				func(e *element.Element) bool { return int64(exclusiveEnd(e)) <= lo },
				func(e *element.Element) bool { return int64(e.VT.Start()) >= hi })
		}
	}
	ttEdges := edges(ttlog, func(e *element.Element) chronon.Chronon { return e.TTStart })
	for i := 0; i < 400; i++ {
		lo := ttEdges[rng.Intn(len(ttEdges))]
		hi := lo + rng.Int63n(1500) - 10
		if i%5 == 0 {
			hi = ttEdges[rng.Intn(len(ttEdges))]
		}
		a, b := seek(ttlog, func(r *BatchReader) { r.SeekTT(chronon.Chronon(lo), chronon.Chronon(hi)) })
		check(fmt.Sprintf("tt [%d, %d]", lo, hi), ttlog, a, b,
			func(e *element.Element) bool { return lo <= int64(e.TTStart) && int64(e.TTStart) <= hi },
			func(e *element.Element) bool { return int64(e.TTStart) < lo },
			func(e *element.Element) bool { return int64(e.TTStart) > hi })
	}
	all := seqOf(heap).chunks()
	for _, c := range []struct {
		st  Store
		how func(*BatchReader)
	}{
		{heap, func(r *BatchReader) { r.SeekVT(100, 200) }},
		{heap, func(r *BatchReader) { r.SeekTT(100, 200) }},
		{ttlog, func(r *BatchReader) { r.SeekVT(100, 200) }},
	} {
		if a, b := seek(c.st, c.how); a != 0 || b != all {
			t.Fatalf("%v: a seek the label does not license yielded [%d, %d) of %d chunks", c.st.Kind(), a, b, all)
		}
	}
}

// allOf reports whether every element of run satisfies p.
func allOf(run []*element.Element, p func(*element.Element) bool) bool {
	for _, e := range run {
		if !p(e) {
			return false
		}
	}
	return true
}

// TestGroupStaysInsideItsBounds pins what Group promises the aggregate memo:
// an aligned stretch of full chunks, read current-only, inside the reader's
// bounds and the clamp, each one stable or entirely closed — and that Pass
// steps over it counting the closed ones as Advance would.
func TestGroupStaysInsideItsBounds(t *testing.T) {
	const g = 16
	st := sealedEventLog(t, 2*g*runSize+10) // vt = tt = 10·(i+1)
	for i := 0; i < runSize; i++ {
		closeAt(st, i, chronon.Chronon(1_000_000+i)) // chunk 0 entirely
	}
	closeAt(st, (g+1)*runSize+3, 2_000_000) // one in chunk 17
	units := make([]Unit, g)
	// groups walks the reader as the aggregate loop does and lists the
	// groups it stepped over, by first chunk, and the chunks it advanced to.
	groups := func(set func(*BatchReader)) (stepped, advanced []int, skipped int) {
		r := NewBatchReader(st, true)
		set(r)
		for {
			if r.Group(units) {
				for i, u := range units {
					if u.Run != units[0].Run+i || u.Stable == (u.Run == 0) {
						t.Fatalf("group at %d: unit %d is %+v", units[0].Run, i, u)
					}
				}
				stepped = append(stepped, units[0].Run)
				r.Pass(units)
				continue
			}
			u, ok := r.Advance()
			if !ok {
				return stepped, advanced, r.Skipped()
			}
			advanced = append(advanced, u.Run)
		}
	}
	tt := func(i int) chronon.Chronon { return chronon.Chronon(10 * (i + 1)) }
	seq := func(from, to int) []int {
		var out []int
		for k := from; k < to; k++ {
			out = append(out, k)
		}
		return out
	}
	cases := []struct {
		name     string
		set      func(*BatchReader)
		stepped  []int
		advanced []int
		skipped  int
	}{
		{"current", func(r *BatchReader) { r.SetCurrentOnly() }, []int{0, g}, []int{-1}, 1},
		{"clamp around everything", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(0, 1<<40) }, []int{0, g}, []int{-1}, 1},
		{"clamp cutting chunk 20", func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(0, tt(20*runSize+5)) },
			[]int{0}, append(seq(g, 21), -1), 1 + 11},
		{"bound inside group 1", func(r *BatchReader) { r.SetCurrentOnly(); r.SeekTT(0, tt(20*runSize+5)) },
			[]int{0}, seq(g, 21), 1 + 12},
		{"as of", func(r *BatchReader) { r.SetAsOf(500_000) }, nil, append(seq(0, 2*g), -1), 0},
		{"unfiltered", func(*BatchReader) {}, nil, append(seq(0, 2*g), -1), 0},
	}
	for _, tc := range cases {
		stepped, advanced, skipped := groups(tc.set)
		if !reflect.DeepEqual(stepped, tc.stepped) || !reflect.DeepEqual(advanced, tc.advanced) || skipped != tc.skipped {
			t.Errorf("%s: groups %v, then %v, %d skipped; want %v, then %v, %d skipped",
				tc.name, stepped, advanced, skipped, tc.stepped, tc.advanced, tc.skipped)
		}
	}
	// Off the alignment, and short of a sixteenth full chunk, there is none.
	r := NewBatchReader(st, true)
	r.SetCurrentOnly()
	if r.Advance(); r.Group(units) {
		t.Error("a group starting at chunk 2")
	}
	short := NewBatchReader(sealedEventLog(t, g*runSize-1), true)
	if short.SetCurrentOnly(); short.Group(units) {
		t.Error("a group of fifteen full chunks and a tail")
	}
}
