package storage

import (
	"context"
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
)

// lgStamp is the valid time-stamp of the i-th element of a general relation
// shaped like the benchmark's ledger: starts wander ±2000 around 50·i,
// intervals are short except the long ones, 40,000 chronons — the callers
// make every second early one long, so early chunks have wide envelopes and
// late ones narrow — and now and then the stamp is one the envelope
// arithmetic has to survive: it reaches, sits at, or lies past MaxChronon,
// where an exclusive end would saturate.
func lgStamp(rng *rand.Rand, i int, interval, long bool) element.Timestamp {
	lo := chronon.Chronon(max(50*int64(i)+rng.Int63n(4001)-2000, 0))
	hostile := rng.Intn(400) == 0
	if !interval {
		if hostile {
			return element.EventAt(chronon.MaxChronon + chronon.Chronon(rng.Intn(2)*7))
		}
		return element.EventAt(lo)
	}
	switch {
	case hostile && rng.Intn(2) == 0:
		return element.SpanOf(lo, chronon.Forever)
	case hostile:
		return element.SpanOf(chronon.MaxChronon-3, chronon.MaxChronon+9)
	case long:
		return element.SpanOf(lo, lo+40_000)
	}
	return element.SpanOf(lo, lo+50+chronon.Chronon(rng.Int63n(101)))
}

// zonePin is a snapshot with the flat list it must answer from, whatever the
// live store has been through since.
type zonePin struct {
	st   *RunStore
	flat []*element.Element
	step int
}

// zoneDiff compares an answer to the definition's, version for version.
func zoneDiff(query string, got, want []*element.Element) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s returned %d elements, the definition %d", query, len(got), len(want))
	}
	for i := range got {
		if !sameVersion(got[i], want[i]) {
			return fmt.Errorf("%s answer %d is ES %v, the definition's ES %v", query, i, got[i].ES, want[i].ES)
		}
	}
	return nil
}

// spanNames is the oracle for what a span claims (spans.go): over one store's
// lifetime — live, re-labelled, and in every snapshot, read from several
// goroutines — it remembers which 256 elements each (chunk, closes) named and
// refuses a second sighting that names others.
type spanNames struct {
	mu   sync.Mutex
	seen map[[2]int][]slotName
}

// slotName is what names a version within a store: its surrogate and tt⊣.
type slotName struct {
	es surrogate.Surrogate
	tt chronon.Chronon
}

func newSpanNames() *spanNames { return &spanNames{seen: make(map[[2]int][]slotName)} }

// check holds the spans of an answer a walk of st gave to the definition:
// read in order they are the answer's elements, got — an element span its
// elements pointer for pointer, a sealed span the slots of its chunk, in slot
// order, whose versions got holds there — every sealed span carries its
// chunk's close count as st holds it, and (chunk, closes) names the elements
// it has always named.
func (n *spanNames) check(query string, st *RunStore, a Answer, got []*element.Element) error {
	i := 0
	for _, sp := range a.Spans() {
		if sp.Len() == 0 || i+sp.Len() > len(got) {
			return fmt.Errorf("%s: a span of %d past %d of %d elements", query, sp.Len(), i, len(got))
		}
		if els := sp.Elements(); els != nil {
			for _, e := range els {
				if e != got[i] {
					return fmt.Errorf("%s: element span holds ES %v where the answer has ES %v", query, e.ES, got[i].ES)
				}
				i++
			}
			continue
		}
		k := sp.Chunk()
		if full := st.full(k); sp.Sealed() != full || full && sp.Closes() != st.chunk(k).closes {
			return fmt.Errorf("%s: span over chunk %d, sealed %v at %d closes, the store's is full %v at %d", query, k, sp.Sealed(), sp.Closes(), full, st.chunk(k).closes)
		}
		slots := sp.Slots()
		for j := slots.Next(0); j < runSize; j = slots.Next(j + 1) {
			// zoneMapModel stores surrogate i+1 at position i
			if es, tt := sp.Key(j); got[i].ES != es || got[i].TTEnd != tt || int(es-1) != k*runSize+j {
				return fmt.Errorf("%s: slot %d of chunk %d is ES %v tt⊣ %v, the answer has ES %v tt⊣ %v", query, j, k, es, tt, got[i].ES, got[i].TTEnd)
			}
			i++
		}
		if !sp.Sealed() {
			continue // the tail: no name to hold it to
		}
		n.mu.Lock()
		key, names := [2]int{k, sp.Closes()}, make([]slotName, runSize)
		for j := range names {
			names[j] = slotName{st.ESAt(k*runSize + j), st.TTEndAt(k*runSize + j)}
		}
		named, ok := n.seen[key]
		if !ok {
			n.seen[key] = names
		}
		n.mu.Unlock()
		if ok && !slices.Equal(named, names) {
			return fmt.Errorf("%s: chunk %d at %d closes names other elements than it did before", query, k, sp.Closes())
		}
	}
	if i != len(got) || a.Len() != len(got) {
		return fmt.Errorf("%s: the spans hold %d elements, the answer says %d and gives %d", query, i, a.Len(), len(got))
	}
	return nil
}

// checkZoneMaps holds every scan of st that prunes on a chunk's zone map —
// time-slice, valid-time range, as-of, and the batch reader under a window
// with and without AS OF — to the definitions over flat, at query points
// drawn from the stored stamps (small windows, wide ones, and the far end of
// the time line), and the spans of every chunk walk (those, the current state
// and the rollback) to names. It returns the first disagreement.
func checkZoneMaps(st *RunStore, flat []*element.Element, rng *rand.Rand, names *spanNames) error {
	for q := 0; q < 4 && len(flat) > 0; q++ {
		at := flat[rng.Intn(len(flat))]
		vt := at.VT.Start() + chronon.Chronon(rng.Intn(61)-30)
		lo := vt - chronon.Chronon(rng.Intn(300))
		hi := lo + 1 + chronon.Chronon(rng.Intn([]int{40, 5000, 60_000}[rng.Intn(3)]))
		tt := flat[rng.Intn(len(flat))].TTStart + chronon.Chronon(rng.Intn(3)-1)
		if q == 3 && rng.Intn(2) == 0 {
			vt, hi = chronon.MaxChronon+chronon.Chronon(rng.Intn(2)*7), chronon.MaxChronon+20
			lo = hi - chronon.Chronon(1+rng.Intn(40))
		}

		got, touched := st.Timeslice(vt)
		want := refmodel.Timeslice(flat, vt)
		if err := zoneDiff(fmt.Sprintf("Timeslice(%d)", vt), got, want); err != nil {
			return err
		}
		if touched < len(got) || touched > len(flat)+1 {
			return fmt.Errorf("Timeslice(%d) touched %d for %d results of %d elements", vt, touched, len(got), len(flat))
		}
		ans, _ := VTRangeAnswer(st, lo, hi)
		got = ans.Elements()
		current := refmodel.VTRange(flat, lo, hi)
		query := fmt.Sprintf("VTRange(%d, %d)", lo, hi)
		if err := zoneDiff(query, got, current); err != nil {
			return err
		}
		if err := names.check(query, st, ans, got); err != nil {
			return err
		}
		ans, _ = Current(st)
		got = ans.Elements()
		if err := zoneDiff("Current", got, refmodel.Current(flat)); err != nil {
			return err
		}
		if err := names.check("Current", st, ans, got); err != nil {
			return err
		}
		ans, _ = RollbackAnswer(st, tt)
		got = ans.Elements()
		query = fmt.Sprintf("Rollback(%d)", tt)
		if err := zoneDiff(query, got, refmodel.Rollback(flat, tt)); err != nil {
			return err
		}
		if err := names.check(query, st, ans, got); err != nil {
			return err
		}
		ans, touched, err := AsOf(context.Background(), st, vt, tt)
		got = ans.Elements()
		want = refmodel.AsOf(flat, vt, tt)
		query = fmt.Sprintf("AsOf(%d, %d)", vt, tt)
		if err == nil {
			err = zoneDiff(query, got, want)
		}
		if err == nil {
			err = names.check(query, st, ans, got)
		}
		if err != nil {
			return err
		}
		if touched < len(got) || touched > len(flat)+1 {
			return fmt.Errorf("AsOf(%d, %d) touched %d for %d results of %d elements", vt, tt, touched, len(got), len(flat))
		}

		// The reader yields whole chunks; its consumer applies the query.
		// What the zone maps pruned must hold no row the query admits, and a
		// chunk reported stable none the window cuts.
		for _, asOf := range []bool{false, true} {
			r := NewBatchReader(st, at.VT.IsEvent())
			r.SetVTWindow(lo, hi)
			answer := func(els []*element.Element) []*element.Element { return refmodel.VTRange(els, lo, hi) }
			if asOf {
				r.SetAsOf(tt)
				answer = func(els []*element.Element) []*element.Element { return refmodel.VTRangeAsOf(els, lo, hi, tt) }
			} else {
				r.SetCurrentOnly()
			}
			var rows []*element.Element
			for {
				u, ok := r.Advance()
				if !ok {
					break
				}
				for _, e := range r.Rows() {
					cp := *e // a sealed unit's rows are the reader's scratch
					rows = append(rows, &cp)
					if u.Stable && (e.VT.Start() < lo || e.VT.End() > hi || e.VT.IsEvent() && e.VT.Start() >= hi) {
						return fmt.Errorf("chunk %d is stable under [%d, %d) but holds %v", u.Run, lo, hi, e.VT)
					}
				}
			}
			if err := zoneDiff(fmt.Sprintf("BatchReader([%d, %d), as of %v)", lo, hi, asOf), answer(rows), answer(flat)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestZoneMapsAgainstTheFilter is the oracle for pruning: whatever a scan
// skips on a chunk's zone map, its answer must be, version for version, what
// the definition returns over the flat list (snapshot reducibility: a pruned read of a
// snapshot is the read of the snapshot). A seeded writer interleaves inserts,
// closes, modifies that land old valid times in new chunks, Compact, and
// Retype up and down from each of the three labels, over event and interval
// stamps of the ledger's shape; for the first stretch the stamps keep
// valid-time order (sequential intervals, what the vt-ordered search needs)
// so every label is reachable, then the label drops as the catalog's would.
// Every few steps the writer checks the live store and publishes a snapshot
// with a copy of its flat model; two readers check whatever was published
// last while the writer goes on — under -race that is the proof of the
// contract's fourth clause, that no snapshot reads a zone map the live side
// is still writing — and at the end every snapshot ever taken, most of them
// cut mid-chunk and long since filled and closed into on the live side, must
// still answer from the list it was taken with.
func TestZoneMapsAgainstTheFilter(t *testing.T) {
	for _, kind := range Kinds() {
		for _, interval := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%v/event/seed%d", kind, seed)
				if interval {
					name = fmt.Sprintf("%v/interval/seed%d", kind, seed)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					zoneMapModel(t, kind, interval, seed)
				})
			}
		}
	}
}

func zoneMapModel(t *testing.T, kind Kind, interval bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := Advice{Store: kind}.New().(*RunStore)
	var flat []*element.Element
	var pins []zonePin
	tt, ordered, vtEnd := chronon.Chronon(5), true, chronon.Chronon(0)
	general := 0 // stamps drawn from lgStamp so far
	const steps, orderedSteps = 3500, 1000

	insert := func(vt element.Timestamp) {
		if rng.Intn(4) > 0 {
			tt++
		}
		e := &element.Element{ES: surrogate.Surrogate(len(flat) + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: vt}
		if rng.Intn(50) == 0 {
			e.TTEnd = tt + 3 // arrives closed, as a replayed version does
		}
		if err := st.Insert(e); err != nil {
			t.Fatalf("insert of vt %v into a %v: %v", vt, st.Kind(), err)
		}
		flat = append(flat, e)
	}
	closeAt := func(i int) {
		if old := flat[i]; old.Current() {
			repl := *old
			tt++
			repl.TTEnd = tt
			st.Replace(old, &repl)
			flat[i] = &repl
		}
	}

	names := newSpanNames()
	var published atomic.Pointer[zonePin]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer wg.Wait() // after the close: a failure below must not outrun the readers
	defer close(stop)
	for r := int64(0); r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p := published.Load(); p != nil {
					if err := checkZoneMaps(p.st, p.flat, rng, names); err != nil {
						t.Errorf("snapshot of step %d (%v), read beside the writer: %v", p.step, p.st.Kind(), err)
						return
					}
				}
			}
		}()
	}

	for step := 0; step < steps && !t.Failed(); step++ {
		switch op := rng.Intn(100); {
		case op < 60 || len(flat) == 0:
			if ordered && step < orderedSteps {
				lo := vtEnd + chronon.Chronon(rng.Intn(12))
				if vtEnd = lo + 1; interval {
					vtEnd = lo + 1 + chronon.Chronon(rng.Intn(50))
					insert(element.SpanOf(lo, vtEnd))
				} else {
					insert(element.EventAt(lo))
				}
				break
			}
			if ordered && st.Kind() == VTOrdered {
				// The catalog's degrade: the promise goes before the stamp
				// that breaks it arrives.
				if err := st.Retype(TTOrdered); err != nil {
					t.Fatal(err)
				}
			}
			ordered = false
			insert(lgStamp(rng, len(flat), interval, general < 600 && general%2 == 0))
			general++
		case op < 75:
			closeAt(rng.Intn(len(flat)))
		case op < 82 && !ordered: // modify: the old valid time, shifted, lands in the newest chunk
			i := rng.Intn(len(flat))
			if old := flat[i]; old.Current() && old.VT.End() < chronon.MaxChronon {
				closeAt(i)
				shift := chronon.Chronon(rng.Intn(201) - 100)
				if interval {
					insert(element.SpanOf(old.VT.Start()+shift, old.VT.End()+shift))
				} else {
					insert(element.EventAt(old.VT.Start() + shift))
				}
			}
		case op < 86:
			// Up only to what the history keeps: Retype refuses a vt-ordered
			// label once starts or ends have left valid-time order.
			to := Kinds()[rng.Intn(3)]
			if to == VTOrdered && !ordered {
				to = TTOrdered
			}
			if err := st.Retype(to); err != nil {
				t.Fatalf("step %d: Retype %v → %v: %v", step, st.Kind(), to, err)
			}
		case op < 89:
			st.Compact()
		default:
			pin := zonePin{st.Snapshot().(*RunStore), append([]*element.Element(nil), flat...), step}
			pins = append(pins, pin)
			published.Store(&pin)
		}
		if step%40 == 0 {
			if err := checkZoneMaps(st, flat, rng, names); err != nil {
				t.Fatalf("live store at step %d (%v): %v", step, st.Kind(), err)
			}
			if bad := VerifyRuns(st); len(bad) != 0 {
				t.Fatalf("live store at step %d: %v", step, bad)
			}
		}
	}
	midChunk := 0
	for _, p := range pins {
		if p.st.Len()%runSize != 0 && p.st.Len()/runSize < st.Len()/runSize {
			midChunk++
		}
		if err := checkZoneMaps(p.st, p.flat, rng, names); err != nil {
			t.Fatalf("snapshot of step %d (%v), at the end: %v", p.step, p.st.Kind(), err)
		}
	}
	if midChunk == 0 && !t.Failed() {
		t.Fatal("no snapshot was cut mid-chunk and outlived the chunk filling: the fourth clause went unexercised")
	}
}

// pollsThenGone is a context that is done from its n-th poll on.
type pollsThenGone struct {
	context.Context
	left int
}

func (c *pollsThenGone) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestAsOfStopsWhenTheCallerIsGone: the bitemporal scan polls its context
// once a chunk, pruned or visited, and gives up with the context's error and
// no partial answer.
func TestAsOfStopsWhenTheCallerIsGone(t *testing.T) {
	st := NewHeap()
	for i := 0; i < 6*runSize; i++ {
		tt := chronon.Chronon(i + 1)
		if err := st.Insert(&element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(tt % runSize)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every chunk holds vt 7, so none is pruned: three polls, three visits.
	got, touched, err := AsOf(&pollsThenGone{context.Background(), 3}, st, 7, 1<<40)
	if err != context.Canceled || got.Len() != 0 || touched != 3*runSize {
		t.Fatalf("AsOf under a caller gone at the fourth poll: %d elements, touched %d, %v", got.Len(), touched, err)
	}
	if got, _, err := AsOf(context.Background(), st, 7, 1<<40); err != nil || got.Len() != 6 {
		t.Fatalf("AsOf with the caller waiting: %d elements, %v", got.Len(), err)
	}
}
