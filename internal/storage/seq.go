package storage

import (
	"repro/internal/element"
	"repro/internal/vec"
)

// runSize is how many elements one chunk of the sequence holds, and so how
// many a sealed run covers: large enough that per-run metadata is
// amortized, small enough that a zone-map miss or a copied chunk wastes
// little work. It equals the batch engine's row capacity, so one run is
// exactly one batch.
const runSize = vec.BatchSize

// seq is the persistent element sequence under every organization: arrival
// order, cut into fixed chunks hanging off a spine. Chunk k holds elements
// [k·runSize, (k+1)·runSize) and, once Compact has sealed it, *is* sealed
// run k — the run's envelope and packed image live in the chunk. Sealed
// chunks form a prefix.
//
// The copy-on-write contract: a snapshot is a copy of this header with the
// spine capped at its length, and reads only elems[:n] and the run
// metadata of chunks [:sealed]. Whatever lies past those two bounds belongs
// to the live side, so an insert fills the tail chunk (or appends a chunk
// to the spine) and a seal writes run metadata in place, neither touching
// anything a snapshot can see. Everything inside the bounds is written only
// through own, which copies the touched chunk — and the spine, once — when
// a snapshot has been taken since they were last copied. A close after a
// publish therefore costs one chunk plus n/runSize spine pointers, not the
// relation.
type seq struct {
	spine  []*chunk
	n      int
	sealed int // leading chunks that are sealed runs
	// packedBytes totals the sealed runs' packed images, kept current by
	// seal and reseal so the footprint reports are O(1) in runs.
	packedBytes int64
	// edit is the ownership stamp: Snapshot bumps it, and a chunk (or the
	// spine) stamped with an older value may be visible to a snapshot.
	edit, spineEdit uint64
	frozen          bool // this sequence is a snapshot; mutation is a caller bug
}

// chunk is runSize element slots and the run metadata that describes them
// once sealed.
type chunk struct {
	edit  uint64
	run   runMeta
	elems [runSize]*element.Element
}

// Len reports the number of stored elements.
func (s *seq) Len() int { return s.n }

func (s *seq) at(i int) *element.Element {
	return s.spine[uint(i)/runSize].elems[uint(i)%runSize]
}

// run returns chunk k's elements, the tail chunk cut at n.
func (s *seq) run(k int) []*element.Element {
	c := s.spine[k]
	if end := s.n - k*runSize; end < runSize {
		return c.elems[:end]
	}
	return c.elems[:]
}

// push appends e. The slot lies past every snapshot's n, and a new chunk
// lands past every snapshot's capped spine.
func (s *seq) push(e *element.Element) {
	if s.n == len(s.spine)*runSize {
		s.spine = append(s.spine, &chunk{edit: s.edit})
	}
	s.spine[s.n/runSize].elems[s.n%runSize] = e
	s.n++
}

// snapshot returns the frozen view, O(1).
func (s *seq) snapshot() seq {
	if !s.frozen {
		s.edit++
	}
	snap := *s
	snap.spine = s.spine[:len(s.spine):len(s.spine)]
	snap.frozen = true
	return snap
}

// own returns chunk k ready for a write inside the snapshot-visible bounds,
// copying it (and first the spine it must be rehung on) if a snapshot may
// share it. Writing to a snapshot itself is a bug in the caller.
func (s *seq) own(k int) *chunk {
	if s.frozen {
		panic("storage: write to a frozen snapshot")
	}
	c := s.spine[k]
	if c.edit == s.edit {
		return c
	}
	if s.spineEdit != s.edit {
		s.spine = append([]*chunk(nil), s.spine...)
		s.spineEdit = s.edit
	}
	cp := *c
	cp.edit = s.edit
	s.spine[k] = &cp
	return &cp
}

// search returns the first index whose element satisfies pred, n when none
// does; pred must be monotone over the sequence. It is sort.Search with the
// element looked up here, which spares a closure call per probe.
func (s *seq) search(pred func(*element.Element) bool) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s.at(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// index finds old by pointer identity, -1 when it is not stored. Elements
// arrive in tt⊢ order, so it binary-searches to the stretch sharing old's
// TTStart and walks that — replaying a log of closes stays O(n log n). Only
// the heap can hold a history whose tt order broke; that falls through to
// the scan.
func (s *seq) index(old *element.Element) int {
	i := s.search(func(e *element.Element) bool { return e.TTStart >= old.TTStart })
	for ; i < s.n && s.at(i).TTStart == old.TTStart; i++ {
		if s.at(i) == old {
			return i
		}
	}
	for k := range s.spine {
		for j, e := range s.run(k) {
			if e == old {
				return k*runSize + j
			}
		}
	}
	return -1
}

// Replace substitutes repl for old (matched by pointer identity) and books
// the close against the sealed run it landed in, copying only that chunk.
// Both orders are unchanged: a closed clone keeps its TTStart and valid
// time. A missing old is a no-op; replacing in a snapshot panics.
func (s *seq) Replace(old, repl *element.Element) {
	if s.frozen {
		panic("storage: replace in a frozen snapshot")
	}
	i := s.index(old)
	if i < 0 {
		return
	}
	k := i / runSize
	c := s.own(k)
	c.elems[i%runSize] = repl
	if k < s.sealed && old.Current() && !repl.Current() {
		c.run.closed++
	}
}

// Scan visits every element in arrival order; it returns the number touched.
func (s *seq) Scan(visit func(*element.Element) bool) int {
	touched := 0
	for k := range s.spine {
		for _, e := range s.run(k) {
			touched++
			if !visit(e) {
				return touched
			}
		}
	}
	return touched
}

// seqOf exposes the sequence under st. An implementation this package does
// not know is copied into a fresh one, so every reader has one shape to
// walk.
func seqOf(st Store) *seq {
	switch s := st.(type) {
	case *HeapStore:
		return &s.seq
	case *TTLogStore:
		return &s.seq
	case *VTLogStore:
		return &s.seq
	case *IndexedEventStore:
		return &s.heap.seq
	}
	cp := &seq{}
	st.Scan(func(e *element.Element) bool { cp.push(e); return true })
	return cp
}

// Runs yields st's elements in arrival order one run at a time: runSize
// elements each, the last one shorter. It is how the scan paths above
// storage read a store — the slices are the store's own chunks, read-only,
// which is exactly the contract a Snapshot provides.
func Runs(st Store) element.Runs {
	s := seqOf(st)
	return func(yield func([]*element.Element) bool) {
		for k := range s.spine {
			if !yield(s.run(k)) {
				return
			}
		}
	}
}

// Elements flattens the store into one freshly allocated slice in arrival
// order. It costs a copy of every pointer; readers that can take the
// elements a run at a time use Runs.
func Elements(st Store) []*element.Element {
	out := make([]*element.Element, 0, st.Len())
	Runs(st)(func(run []*element.Element) bool { out = append(out, run...); return true })
	return out
}

// Ends returns the first and last stored elements, nil for an empty store.
func Ends(st Store) (first, last *element.Element) {
	if s := seqOf(st); s.n > 0 {
		return s.at(0), s.at(s.n - 1)
	}
	return nil, nil
}
