package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// seqModel is the naive reference the sequence is held to: a flat copy of
// the pointers, per sealed run the number of closes booked since it was
// (re)sealed, and per chunk the number of closes it has ever seen.
type seqModel struct {
	elems  []*element.Element
	closed []int
	closes []int
}

func (m seqModel) clone() seqModel {
	return seqModel{
		elems:  append([]*element.Element(nil), m.elems...),
		closed: append([]int(nil), m.closed...),
		closes: append([]int(nil), m.closes...),
	}
}

// checkCounts holds both close counts to the model: since sealing for the
// sealed runs, lifetime for the full chunks — the ones a snapshot may read
// it for — which a seal, a reseal and a repair must all leave alone.
func (m seqModel) checkCounts(t *testing.T, what string, s *seq) {
	t.Helper()
	if s.sealed != len(m.closed) {
		t.Fatalf("%s: %d sealed runs, model has %d", what, s.sealed, len(m.closed))
	}
	for k := 0; k < len(m.elems)/runSize; k++ {
		c := s.chunk(k)
		if c.closes != m.closes[k] {
			t.Fatalf("%s: chunk %d has seen %d closes, model %d", what, k, c.closes, m.closes[k])
		}
		if k < len(m.closed) && c.run.closed != m.closed[k] {
			t.Fatalf("%s: run %d counts %d closes, model %d", what, k, c.run.closed, m.closed[k])
		}
	}
}

// check holds one store, live or frozen, to a model: the same pointers in
// the same order through every way of reading them, the same sealed runs
// with the same close counts, totals that agree with a walk, and packed
// images that still verify.
func (m seqModel) check(t *testing.T, what string, st Store) {
	t.Helper()
	s := seqOf(st)
	if st.Len() != len(m.elems) || s.sealed != len(m.closed) {
		t.Fatalf("%s: %d elements in %d sealed runs, model has %d in %d", what, st.Len(), s.sealed, len(m.elems), len(m.closed))
	}
	flat := Elements(st)
	i := 0
	st.Scan(func(e *element.Element) bool {
		if e != m.elems[i] || flat[i] != e || s.at(i) != e {
			t.Fatalf("%s: slot %d holds ES %v (flattened ES %v), model ES %v", what, i, e.ES, flat[i].ES, m.elems[i].ES)
		}
		i++
		return true
	})
	if i != len(m.elems) {
		t.Fatalf("%s: Scan visited %d of %d", what, i, len(m.elems))
	}
	m.checkCounts(t, what, s)
	var packed int64
	for k := range m.closed {
		packed += int64(len(s.chunk(k).run.packed))
	}
	if cs := Compaction(st); cs.PackedBytes != packed || cs.Sealed != len(m.closed)*runSize || StoreBytes(st) != packed+int64(len(m.elems)-cs.Sealed)*flatStampBytes {
		t.Fatalf("%s: running totals %+v / %d bytes disagree with a walk (%d packed)", what, cs, StoreBytes(st), packed)
	}
	if bad := VerifyRuns(st); len(bad) != 0 {
		t.Fatalf("%s: %v", what, bad)
	}
}

// TestSeqAgainstFlatModel drives random interleavings of insert, close,
// re-replace, snapshot, compact, corrupt+repair and reseal against the
// model, on all three organizations (the heap never seals: its chunks have
// lifetime counts only). Every snapshot, however old, must keep yielding
// exactly the pointers and both close counts it was taken with, and the live
// store must equal the model — both counts after every step.
func TestSeqAgainstFlatModel(t *testing.T) {
	type pinned struct {
		st    Store
		model seqModel
		step  int
	}
	for _, kind := range []Kind{Heap, TTOrdered, VTOrdered} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				st := Advice{Store: kind}.New()
				var m seqModel
				var pins []pinned
				tt := chronon.Chronon(0)
				insert := func() { // tt⊢ repeats now and then
					if rng.Intn(4) > 0 {
						tt++
					}
					e := &element.Element{
						ES: surrogate.Surrogate(len(m.elems) + 1), OS: 1,
						TTStart: tt, TTEnd: chronon.Forever,
						VT: element.EventAt(chronon.Chronon(10 * len(m.elems))),
					}
					if err := st.Insert(e); err != nil {
						t.Fatal(err)
					}
					m.elems = append(m.elems, e)
					if len(m.elems)%runSize == 1 {
						m.closes = append(m.closes, 0)
					}
				}
				if seed == 4 {
					// Start just short of a full spine block, so the steps
					// below hang chunks in a second block and close into both.
					for len(m.elems) < blockSize*runSize-1000 {
						insert()
					}
				}
				for step := 0; step < 6000; step++ {
					switch op := rng.Intn(100); {
					case op < 55 || len(m.elems) == 0:
						insert()
					case op < 80: // replace: a close when the element is open, a plain swap otherwise
						i := rng.Intn(len(m.elems))
						old := m.elems[i]
						repl := *old
						if old.Current() {
							repl.TTEnd = tt + 1
						}
						st.Replace(old, &repl)
						if k := i / runSize; old.Current() {
							m.closes[k]++
							if k < len(m.closed) {
								m.closed[k]++
							}
						}
						m.elems[i] = &repl
					case op < 90:
						pins = append(pins, pinned{st.Snapshot(), m.clone(), step})
					case op < 94:
						if c, ok := st.(Compacter); ok {
							sealed := c.Compact()
							if want := len(m.elems)/runSize - len(m.closed); sealed != want*runSize {
								t.Fatalf("step %d: Compact sealed %d elements, want %d runs", step, sealed, want)
							}
							for len(m.closed) < len(m.elems)/runSize {
								m.closed = append(m.closed, 0)
							}
						}
					case op < 97: // bit rot in a sealed image, detected and repaired
						if len(m.closed) > 0 {
							k := rng.Intn(len(m.closed))
							if !CorruptRun(st, k, rng.Intn(1<<16), uint8(rng.Intn(8))) {
								t.Fatalf("step %d: run %d not corrupted", step, k)
							}
							bad := VerifyRuns(st)
							if len(bad) != 1 || bad[0].Run != k || ResealRuns(st, []int{k}) != 1 {
								t.Fatalf("step %d: corrupting run %d reported %v", step, k, bad)
							}
							m.closed[k] = 0
						}
					default: // reseal a healthy run: its close count starts over
						if len(m.closed) > 0 {
							k := rng.Intn(len(m.closed))
							ResealRuns(st, []int{k})
							m.closed[k] = 0
						}
					}
					m.checkCounts(t, fmt.Sprintf("live store at step %d", step), seqOf(st))
					if step%97 == 0 {
						m.check(t, fmt.Sprintf("live store at step %d", step), st)
					}
				}
				m.check(t, "live store", st)
				for _, p := range pins {
					p.model.check(t, fmt.Sprintf("snapshot of step %d", p.step), p.st)
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
		st     *VTLogStore
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
	publish := func() { published.Store(&view{st.Snapshot().(*VTLogStore), closed, tt}) }
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
				inRuns, batched := 0, 0
				for k := range v.st.sealed {
					inRuns += v.st.chunk(k).run.closed
				}
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
				// Every close a run has seen since sealing is one of the view's,
				// so the run counts bound the total from below.
				if scanned != v.closed || batched != v.closed || len(present) != v.st.Len()-v.closed || inRuns > v.closed {
					t.Errorf("pinned view moved: %d closed at publish, scan %d, batches %d, rollback %d of %d present, runs %d",
						v.closed, scanned, batched, len(present), v.st.Len(), inRuns)
					return
				}
				checks.Add(1)
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 4000 || (checks.Load() < 100 && !t.Failed()); step++ {
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
