package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/refmodel"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// seqModel is the naive reference the sequence is held to: a flat copy of
// the pointers, the number of sealed runs and the packed size each measured
// at its seal, and per chunk the number of closes it has ever seen.
type seqModel struct {
	elems  []*element.Element
	sealed int
	packed int64
	closes []int
}

// counts copies the model without its list, which a pinned model rebuilds
// from the live one (modelEdit).
func (m seqModel) counts() seqModel {
	m.elems = nil
	m.closes = append([]int(nil), m.closes...)
	return m
}

// modelEdit is one change to the model's list, as undoing it needs: slot i
// held old before it, or nothing — an append — when old is nil. A pinned
// model keeps how many edits there had been, not a copy of the list, so
// hundreds of pins hold no pointer array each for the collector to mark.
type modelEdit struct {
	i   int
	old *element.Element
}

// checkCounts holds the sealed prefix and the lifetime close counts of the
// full chunks — the ones a snapshot may read them for — to the model; a
// seal, a reseal and a repair must all leave the counts alone.
func (m seqModel) checkCounts(t *testing.T, what string, s *seq) {
	t.Helper()
	if s.sealed != m.sealed {
		t.Fatalf("%s: %d sealed runs, model has %d", what, s.sealed, m.sealed)
	}
	for k := 0; k < len(m.elems)/runSize; k++ {
		if c := s.chunk(k); c.closes != m.closes[k] {
			t.Fatalf("%s: chunk %d has seen %d closes, model %d", what, k, c.closes, m.closes[k])
		}
	}
}

// check holds one store, live or frozen, to a model: the same versions in
// the same order through every way of reading them — each materialized
// from the chunks' columns — the same sealed runs and close counts, the
// footprint totals measured at each seal, and zone maps that still verify.
func (m seqModel) check(t *testing.T, what string, st Store) {
	t.Helper()
	s := seqOf(st)
	if st.Len() != len(m.elems) || s.sealed != m.sealed {
		t.Fatalf("%s: %d elements in %d sealed runs, model has %d in %d", what, st.Len(), s.sealed, len(m.elems), m.sealed)
	}
	flat := Elements(st)
	i := 0
	st.Scan(func(e *element.Element) bool {
		if !sameVersion(e, m.elems[i]) || !sameVersion(flat[i], e) || !sameVersion(s.At(i), e) {
			t.Fatalf("%s: slot %d holds ES %v (flattened ES %v), model ES %v", what, i, e.ES, flat[i].ES, m.elems[i].ES)
		}
		i++
		return true
	})
	if i != len(m.elems) {
		t.Fatalf("%s: Scan visited %d of %d", what, i, len(m.elems))
	}
	m.checkCounts(t, what, s)
	if cs := Compaction(st); cs.PackedBytes != m.packed || cs.Sealed != m.sealed*runSize || StoreBytes(st) != m.packed+int64(len(m.elems)-cs.Sealed)*flatStampBytes {
		t.Fatalf("%s: running totals %+v / %d bytes disagree with the model (%d packed)", what, cs, StoreBytes(st), m.packed)
	}
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("%s: %v", what, bad)
	}
}

// checkQueries holds every access method of the store — whichever its label
// lets it take — to the definitions evaluated over the model's flat list, at
// the stamps of a few stored elements. Every method walks forward, so the
// answers must be the same versions in the same order.
func (m seqModel) checkQueries(t *testing.T, what string, st Store) {
	t.Helper()
	same := func(query string, got, want []*element.Element) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s (%v): %s returned %d elements, the definition %d", what, st.Kind(), query, len(got), len(want))
		}
		for i := range got {
			if !sameVersion(got[i], want[i]) {
				t.Fatalf("%s (%v): %s answer %d is ES %v, the definition ES %v", what, st.Kind(), query, i, got[i].ES, want[i].ES)
			}
		}
	}
	for _, i := range []int{0, len(m.elems) / 3, len(m.elems) - 1} {
		if i < 0 {
			break
		}
		vt, tt := m.elems[i].VT.Start(), m.elems[i].TTStart
		hi, ttLo := vt.Add(970), tt-2
		got, _ := st.Timeslice(vt)
		same(fmt.Sprintf("Timeslice(%v)", vt), got, refmodel.Timeslice(m.elems, vt))
		got, _ = st.VTRange(vt, hi)
		same(fmt.Sprintf("VTRange(%v, %v)", vt, hi), got, refmodel.VTRange(m.elems, vt, hi))
		got, _ = st.Rollback(tt)
		same(fmt.Sprintf("Rollback(%v)", tt), got, refmodel.Rollback(m.elems, tt))
		if rs, ok := st.(*RunStore); ok {
			var window []*element.Element // the transaction-time window is an access method's, not a query's
			for _, e := range m.elems {
				if ttLo <= e.TTStart && e.TTStart <= tt {
					window = append(window, e)
				}
			}
			a, _ := rs.ttWindow(ttLo, tt, false, 0, 0)
			same(fmt.Sprintf("ttWindow(%v, %v)", ttLo, tt), a.Elements(), window)
		}
	}
}

// stepping is held shared by each model test that runs beside the others,
// given up and taken back between its steps, and held alone by a
// measurement of allocations, which counts every goroutine's
// (measureAlone).
var stepping sync.RWMutex

// measureAlone is testing.AllocsPerRun(1, f) taken while every other model
// test waits between two steps: the caller, holding its share, gives it up
// and takes it back.
func measureAlone(f func()) float64 {
	stepping.RUnlock()
	defer stepping.RLock()
	stepping.Lock()
	defer stepping.Unlock()
	return testing.AllocsPerRun(1, f)
}

// TestSeqAgainstFlatModel drives random interleavings of insert, close,
// re-replace, snapshot, compact, corrupt+repair, reseal and retype against
// the model, starting from each of the three organizations (the heap seals
// nothing new, but keeps the runs a log sealed before it was demoted). Now
// and then an insert carries a stamp out of valid-time or transaction-time
// order: the store must refuse it exactly when its label promises that order,
// and from then on refuse to be raised to such a label, with the error a
// store that had carried the label all along gives. Every snapshot, however
// old and whatever the live store has been re-labelled to since, must keep
// its label, the pointers and both close counts it was taken with; the live
// store must equal the model — both counts after every step — and every
// store must answer every query as the definitions do over the model's list.
func TestSeqAgainstFlatModel(t *testing.T) {
	type pinned struct {
		st    Store
		model seqModel // the list rebuilt at the end, undoing later edits
		edits int
		step  int
		kind  Kind
	}
	for _, kind := range []Kind{Heap, TTOrdered, VTOrdered} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				stepping.RLock()
				defer stepping.RUnlock()
				rng := rand.New(rand.NewSource(seed))
				st := Advice{Store: kind}.New().(*RunStore)
				var m seqModel
				var pins []pinned
				var edits []modelEdit
				tt := chronon.Chronon(5)
				// insert appends in both orders (tt⊢ repeats now and then);
				// with disorder ≥ 1, once in a while a retroactive stamp,
				// with 2 also one from a clock that went back, which only
				// some labels admit.
				insert := func(disorder int) {
					if rng.Intn(4) > 0 {
						tt++
					}
					e := &element.Element{
						ES: surrogate.Surrogate(len(m.elems) + 1), OS: 1,
						TTStart: tt, TTEnd: chronon.Forever,
						VT: element.EventAt(chronon.Chronon(10 * len(m.elems))),
					}
					admitted := true
					if n := len(m.elems); n > 0 && disorder > 0 {
						switch last, dice := m.elems[n-1], rng.Intn(300); {
						case dice == 0:
							e.VT = element.EventAt(chronon.Chronon(10 * rng.Intn(n)))
							admitted = st.Kind() != VTOrdered || e.VT.Start() >= last.VT.Start()
						case dice == 1 && disorder > 1:
							e.TTStart = tt - chronon.Chronon(1+rng.Intn(3))
							admitted = st.Kind() == Heap || e.TTStart >= last.TTStart
						}
					}
					if err := st.Insert(e); (err == nil) != admitted {
						t.Fatalf("insert of tt⊢ %v, vt %v into a %v: %v", e.TTStart, e.VT.Start(), st.Kind(), err)
					}
					if !admitted {
						return // the checks below hold the store to the unchanged model
					}
					m.elems = append(m.elems, e)
					edits = append(edits, modelEdit{i: len(m.elems) - 1})
					if len(m.elems)%runSize == 1 {
						m.closes = append(m.closes, 0)
					}
				}
				if seed == 4 {
					// Start just short of a full spine block, so the steps
					// below hang chunks in a second block and close into both.
					for len(m.elems) < blockSize*runSize-1000 {
						insert(0)
					}
				}
				for step := 0; step < 6000; step++ {
					stepping.RUnlock() // let a measurement in (measureAlone)
					stepping.RLock()
					switch op := rng.Intn(100); {
					case op < 52 || len(m.elems) == 0:
						// Seed 1 keeps both orders throughout, seed 2 loses
						// the valid-time one, seed 3 both, seed 4 both once
						// the two-block store has been through every label.
						if seed < 4 || step >= 3000 {
							insert(min(int(seed)-1, 2))
						} else {
							insert(0)
						}
					case op < 55: // re-label: granted exactly when a store of that label holds the list
						to, was := Kinds()[rng.Intn(3)], st.Kind()
						var want error
						ref := Advice{Store: to}.New()
						for _, e := range m.elems {
							if want = ref.Insert(e); want != nil {
								break
							}
						}
						err := st.Retype(to)
						if (err == nil) != (want == nil) || err != nil && (err.Error() != want.Error() || st.Kind() != was) {
							t.Fatalf("step %d: Retype %v → %v: %v, store now %v; filling a fresh %v: %v", step, was, to, err, st.Kind(), to, want)
						}
						if err == nil && st.Kind() != to || to < was && err != nil {
							t.Fatalf("step %d: Retype %v → %v: %v, store now %v", step, was, to, err, st.Kind())
						}
						if err == nil && to > was && step%10 == 0 { // the measurement stops the world
							if allocs := measureAlone(func() { _, _ = st.Retype(was), st.Retype(to) }); allocs != 0 {
								t.Fatalf("step %d: lowering to %v and raising to %v again allocated %v times", step, was, to, allocs)
							}
						}
					case op < 80: // replace: a close when the element is open, a plain swap otherwise
						i := rng.Intn(len(m.elems))
						old := m.elems[i]
						repl := *old
						if old.Current() {
							repl.TTEnd = tt + 1
						}
						st.Replace(old, &repl)
						if old.Current() {
							m.closes[i/runSize]++
						}
						m.elems[i] = &repl
						edits = append(edits, modelEdit{i, old})
					case op < 90:
						pins = append(pins, pinned{st.Snapshot(), m.counts(), len(edits), step, st.Kind()})
					case op < 94:
						want := len(m.elems)/runSize - m.sealed
						if st.Kind() == Heap {
							want = 0
						}
						if sealed := st.Compact(); sealed != want*runSize {
							t.Fatalf("step %d: Compact sealed %d elements, want %d runs", step, sealed, want)
						}
						for ; want > 0; want-- {
							m.packed += int64(packedSize(m.elems[m.sealed*runSize : (m.sealed+1)*runSize]))
							m.sealed++
						}
					case op < 97: // bit rot in a full chunk's zone map, detected and repaired
						if full := len(m.elems) / runSize; full > 0 {
							k, hi, bit := rng.Intn(full), rng.Intn(2) == 0, uint8(rng.Intn(63))
							if corrupt := []func(Store, int, bool, uint8) bool{CorruptZone, CorruptTT}[rng.Intn(2)]; !corrupt(st, k, hi, bit) {
								t.Fatalf("step %d: chunk %d not corrupted", step, k)
							}
							bad := VerifyRuns(st)
							if len(bad) != 1 || bad[0].Run != k || ResealRuns(st, []int{k}) != 1 || len(VerifyRuns(st)) != 0 {
								t.Fatalf("step %d: corrupting chunk %d reported %v", step, k, bad)
							}
						}
					default: // reseal a healthy chunk: nothing moves
						if full := len(m.elems) / runSize; full > 0 {
							ResealRuns(st, []int{rng.Intn(full)})
						}
					}
					m.checkCounts(t, fmt.Sprintf("live store at step %d", step), seqOf(st))
					if step%97 == 0 {
						m.check(t, fmt.Sprintf("live store at step %d", step), st)
						m.checkQueries(t, fmt.Sprintf("live store at step %d", step), st)
					}
				}
				m.check(t, "live store", st)
				m.checkQueries(t, "live store", st)
				list := slices.Clone(m.elems)
				for i := len(pins) - 1; i >= 0; i-- {
					p := pins[i]
					for ; len(edits) > p.edits; edits = edits[:len(edits)-1] {
						if u := edits[len(edits)-1]; u.old == nil {
							list = list[:u.i]
						} else {
							list[u.i] = u.old
						}
					}
					p.model.elems = list
					what := fmt.Sprintf("snapshot of step %d", p.step)
					if p.st.Kind() != p.kind || p.st.(*RunStore).Retype(Heap) == nil {
						t.Fatalf("%s: taken of a %v, now a %v that lets itself be re-labelled", what, p.kind, p.st.Kind())
					}
					p.model.check(t, what, p.st)
					if i%4 == 0 { // the answers are most of the list; a quarter of the pins keeps the test short
						p.model.checkQueries(t, what, p.st)
					}
				}
			})
		}
	}
}

// TestSeqLockFreeReaders pins views from goroutines that take no lock while
// one writer closes elements inside sealed runs, in unsealed full chunks and
// in the tail, appends, seals — in place, chunks a pinned view is reading as
// unsealed — and publishes. Run under -race it is the proof that a write
// never lands where a published snapshot reads; each reader also checks that
// the view it pinned is the one that was published — the number of closed
// elements and every sealed run's close count match what the writer
// recorded at that publish, by scan, by rollback and by batch, and every
// full chunk's lifetime close count (the Advance unit's) is the number of
// closed elements the view holds in that chunk.
func TestSeqLockFreeReaders(t *testing.T) {
	type view struct {
		st     *RunStore
		closed int
		tt     chronon.Chronon
	}
	st := NewVTLog()
	var open []*element.Element
	tt := chronon.Chronon(0)
	insert := func() {
		tt++
		e := &element.Element{ES: surrogate.Surrogate(tt), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(10 * tt)}
		if err := st.Insert(e); err != nil {
			t.Error(err)
		}
		open = append(open, e)
	}
	for i := 0; i < 5*runSize+40; i++ {
		insert()
	}
	st.Compact()
	closed := 0
	var published atomic.Pointer[view]
	publish := func() { published.Store(&view{st.Snapshot().(*RunStore), closed, tt}) }
	publish()

	var wg sync.WaitGroup
	var checks atomic.Int64   // views the readers have verified
	var unsealed atomic.Int64 // unsealed full chunks whose unit they have verified
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b vec.Batch
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := published.Load()
				scanned := 0
				v.st.Scan(func(e *element.Element) bool {
					if !e.Current() {
						scanned++
					}
					return true
				})
				present, _ := v.st.Rollback(v.tt)
				batched := 0
				br := NewBatchReader(v.st, true)
				for {
					ok, err := br.Next(&b)
					if err != nil {
						t.Error(err)
						return
					}
					if !ok {
						break
					}
					for i := 0; i < b.N; i++ {
						if b.TTEnd[i] != int64(chronon.Forever) {
							batched++
						}
					}
				}
				units := NewBatchReader(v.st, true)
				units.SetCurrentOnly()
				for {
					u, ok := units.Advance()
					if !ok {
						break
					}
					if u.Run < 0 {
						continue
					}
					n := 0
					for _, e := range units.Rows() {
						if !e.Current() {
							n++
						}
					}
					if n != u.Closed || !u.Stable {
						t.Errorf("pinned view moved: chunk %d reports %d closes (stable %v), holds %d closed elements", u.Run, u.Closed, u.Stable, n)
						return
					}
					if u.Run >= v.st.sealed {
						unsealed.Add(1)
					}
				}
				if scanned != v.closed || batched != v.closed || len(present) != v.st.Len()-v.closed {
					t.Errorf("pinned view moved: %d closed at publish, scan %d, batches %d, rollback %d of %d present",
						v.closed, scanned, batched, len(present), v.st.Len())
					return
				}
				checks.Add(1)
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	// Past the first 4000 steps, keep writing until the readers have checked
	// a hundred views and one of them with an unsealed full chunk: how far
	// they get in 4000 steps is the scheduler's call (it left the second
	// unmet in ≈ 2 runs of 100).
	for step := 0; step < 4000 || (checks.Load() < 100 || unsealed.Load() == 0) && !t.Failed() && step < 100_000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 && len(open) > 0: // close: most land in sealed runs, some in the newest chunks or the tail
			i := rng.Intn(len(open))
			switch rng.Intn(4) {
			case 0:
				i = len(open) - 1 - rng.Intn(min(len(open), 30))
			case 1:
				i = len(open) - 1 - rng.Intn(min(len(open), 2*runSize))
			}
			old := open[i]
			repl := *old
			tt++
			repl.TTEnd = tt
			st.Replace(old, &repl)
			open = append(open[:i], open[i+1:]...)
			closed++
		case op < 9 || rng.Intn(16) > 0: // seals are rare enough for full chunks to wait unsealed
			insert()
		default:
			st.Compact()
		}
		publish()
	}
	close(stop)
	wg.Wait()
	if unsealed.Load() == 0 && !t.Failed() {
		t.Fatal("no reader ever saw an unsealed full chunk: the seal-under-a-reader case went unexercised")
	}
}

// sameVersion reports whether a and b are one stored version: the same
// element, or — a sealed chunk hands out materialized copies — equal field
// for field, nil lists told from empty ones.
func sameVersion(a, b *element.Element) bool {
	if a == b {
		return true
	}
	return a.ES == b.ES && a.OS == b.OS && a.TTStart == b.TTStart && a.TTEnd == b.TTEnd && a.VT == b.VT &&
		sameList(a.Invariant, b.Invariant) && sameList(a.Varying, b.Varying) && sameList(a.UserTimes, b.UserTimes)
}

// sameList compares two lists by their values: a chunk keeps a list's
// length, not whether an empty one was nil (relation normalizes them).
func sameList[T comparable](a, b []T) bool { return slices.Equal(a, b) }

// TestSealOnFillKeepsPinnedViews: on the vt-ordered log the element that
// fills a chunk cuts its arena to size, and a close into a chunk writes a
// copied tt⊣ column. A view pinned before the fill keeps reading the arena it
// read, and one pinned before the close keeps the version open. Every answer
// is held to a filter over the view's own list.
func TestSealOnFillKeepsPinnedViews(t *testing.T) {
	st := NewVTLog()
	var flat []*element.Element
	add := func(n int) {
		for i := 0; i < n; i++ {
			k := len(flat) + 1
			e := &element.Element{ES: surrogate.Surrogate(k), OS: surrogate.Surrogate(k % 5), TTStart: chronon.Chronon(10 * k),
				TTEnd: chronon.Forever, VT: element.EventAt(chronon.Chronon(3 * k)),
				Invariant: []element.Value{element.String_(fmt.Sprint("s", k%4))}, Varying: []element.Value{element.Int(int64(k)), element.Float(1.5)}}
			if err := st.Insert(e); err != nil {
				t.Fatal(err)
			}
			flat = append(flat, e)
		}
	}
	type pin struct {
		what string
		st   Store
		flat []*element.Element
	}
	check := func(p pin) {
		t.Helper()
		m := seqModel{elems: p.flat}
		m.checkQueries(t, p.what, p.st)
		got := Elements(p.st)
		if len(got) != len(p.flat) {
			t.Fatalf("%s: %d elements, want %d", p.what, len(got), len(p.flat))
		}
		for i := range got {
			if !sameVersion(got[i], p.flat[i]) {
				t.Fatalf("%s: slot %d is %v, want %v", p.what, i, got[i], p.flat[i])
			}
		}
	}
	add(runSize - 1)
	beforeFill := pin{"pinned before the fill", st.Snapshot(), slices.Clone(flat)}
	add(1)
	// Four distinct strings of two bytes, each stored once.
	if c := st.chunk(0); len(c.strs) != 8 {
		t.Fatalf("the element that filled chunk 0 left an arena of %d bytes, want 8", len(c.strs))
	}
	if c := beforeFill.st.(*RunStore).chunk(0); len(c.strs) == 8 {
		t.Fatal("the fill cut the arena of the chunk header the pinned view reads")
	}
	add(40)
	beforeClose := pin{"pinned before the close", st.Snapshot(), slices.Clone(flat)}
	closed := *flat[17]
	closed.TTEnd = 9_999
	st.ReplaceAt(17, &closed)
	flat[17] = &closed
	if c, was := st.chunk(0), beforeClose.st.(*RunStore).chunk(0); c.ttEnd == was.ttEnd || was.ttEnd[17] != chronon.Forever {
		t.Fatal("the close wrote into the tt⊣ column the pinned view reads")
	}
	check(pin{"live store", st, flat})
	check(beforeFill)
	check(beforeClose)
}

// TestSealEmptyStrings: a chunk whose only string values have no bytes
// seals, and reads them back as empty strings.
func TestSealEmptyStrings(t *testing.T) {
	st := NewVTLog()
	for k := 1; k <= runSize; k++ {
		if err := st.Insert(&element.Element{ES: surrogate.Surrogate(k), OS: 1, TTStart: chronon.Chronon(k),
			TTEnd: chronon.Forever, VT: element.EventAt(chronon.Chronon(k)),
			Varying: []element.Value{element.String_(""), element.Int(int64(k))}}); err != nil {
			t.Fatal(err)
		}
	}
	if e := st.At(7); !sameList(e.Varying, []element.Value{element.String_(""), element.Int(8)}) {
		t.Fatalf("slot 7 reads %v", e.Varying)
	}
}

// packedSize is the packed size of run, the elements of one chunk in slot
// order: what seal measures, computed from the model's own list.
func packedSize(run []*element.Element) int {
	var s seq
	for _, e := range run {
		s.push(e)
	}
	return s.chunk(0).packedSize(len(run))
}
