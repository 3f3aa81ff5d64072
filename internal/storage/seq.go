package storage

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/vec"
)

// runSize is how many elements one chunk of the sequence holds, and so how
// many a sealed run covers: large enough that per-run metadata is
// amortized, small enough that a zone-map miss or a copied chunk wastes
// little work. It equals the batch engine's row capacity, so one run is
// exactly one batch.
const runSize = vec.BatchSize

// blockSize is how many chunks hang off one block of the spine.
const blockSize = 64

// seq is the persistent element sequence under every organization: arrival
// order, cut into fixed chunks that hang, blockSize at a time, off the blocks
// of a spine. Chunk k holds elements [k·runSize, (k+1)·runSize) and, once
// Compact has sealed it, is also sealed run k; sealed chunks form a prefix,
// and sealing writes nothing into them (compact.go).
//
// The copy-on-write contract: a snapshot is a copy of this header with the
// spine capped at its length, and reads only elems[:n] and, of the full
// chunks inside n, the lifetime close count and the zone map — never the
// tail's, which the live side is still widening. Whatever lies past those
// bounds belongs to the live side, so an insert fills the tail chunk and
// widens its zone map (or hangs a new chunk in the next slot of the last
// block, or appends a block to the spine), none of it touching anything a
// snapshot can see. Everything inside
// the bounds is written only through own, which copies the touched chunk,
// the block it hangs off and the spine — each at most once per snapshot —
// when a snapshot has been taken since they were last copied. A close after
// a publish therefore costs one chunk, one block and n/(runSize·blockSize)
// spine pointers, not the relation.
type seq struct {
	spine  []*block
	n      int
	sealed int // leading chunks that are sealed runs
	// packedBytes totals the sealed runs' delta-encoded sizes, measured by
	// seal, so the footprint reports are O(1) in runs.
	packedBytes int64
	// edit is the ownership stamp: Snapshot bumps it, and a chunk, a block
	// or the spine stamped with an older value may be visible to a snapshot.
	edit, spineEdit uint64
	frozen          bool // this sequence is a snapshot; mutation is a caller bug
}

// block is one stretch of the spine: blockSize chunk pointers.
type block struct {
	edit   uint64
	chunks [blockSize]*chunk
}

// zone is a chunk's zone map, kept by push and Replace: how many elements
// arrived current; the valid-time envelope — the least vt⊢ and the greatest
// last valid chronon (vt⊣ − 1; for an event, the event); and two
// transaction-time facts — the least tt⊢, and the greatest tt⊣ among the
// closed elements. The valid-time high bound is inclusive so that no stamp,
// however close to the end of the time line, needs a chronon past its own to
// describe it. The zone map is a fact about the elements, not a promise
// about the ones to come: valid times and tt⊢ are immutable, and a tt⊣ is
// written once, by the close that swaps in a clone (Replace widens ttClosed
// over it). So on every organization, sealed or not, a full chunk whose zone
// map misses a query holds nothing the query wants.
type zone struct {
	opened         int
	vtLo, vtLast   chronon.Chronon
	ttLo, ttClosed chronon.Chronon
}

// emptyZone is the zone map of no elements.
func emptyZone() zone {
	return zone{vtLo: chronon.MaxChronon, vtLast: chronon.MinChronon, ttLo: chronon.MaxChronon, ttClosed: chronon.MinChronon}
}

// widen takes e into the zone map.
func (z *zone) widen(e *element.Element) {
	if lo := e.VT.Start(); lo < z.vtLo {
		z.vtLo = lo
	}
	last := e.VT.End() // an event's End is the event
	if !e.VT.IsEvent() {
		last--
	}
	if last > z.vtLast {
		z.vtLast = last
	}
	if e.TTStart < z.ttLo {
		z.ttLo = e.TTStart
	}
	if e.Current() {
		z.opened++
	} else {
		z.closedAt(e.TTEnd)
	}
}

// closedAt takes the tt⊣ of a closed element into the zone map.
func (z *zone) closedAt(tt chronon.Chronon) {
	if tt > z.ttClosed {
		z.ttClosed = tt
	}
}

// zoneOf is the zone map push and Replace would have left over run had
// closed of its elements closed since they arrived.
func zoneOf(run []*element.Element, closed int) zone {
	z := emptyZone()
	z.opened = closed
	for _, e := range run {
		z.widen(e)
	}
	return z
}

// vtMisses reports whether no element is valid anywhere in [lo, hi),
// vtMissesAt whether none is valid at vt, and vtWithin whether every element
// has its whole valid time inside [lo, hi).
func (z *zone) vtMisses(lo, hi chronon.Chronon) bool { return z.vtLo >= hi || z.vtLast < lo }
func (z *zone) vtMissesAt(vt chronon.Chronon) bool   { return vt < z.vtLo || z.vtLast < vt }
func (z *zone) vtWithin(lo, hi chronon.Chronon) bool { return lo <= z.vtLo && z.vtLast < hi }

// chunk is runSize element slots and the zone map over them.
type chunk struct {
	edit uint64
	// closes counts every open→closed Replace that ever landed in the chunk,
	// sealed or not: closes are monotone and arrive in one sequence, so among
	// views of one store that see the chunk full, closes alone identifies
	// which of its elements are current.
	closes int
	zone
	elems [runSize]*element.Element
}

// live reports whether any element of the full chunk is still current.
func (c *chunk) live() bool { return c.closes < c.opened }

// deadAt reports whether no element of the full chunk is present at tt:
// none had begun by tt, or every one had been closed by it.
func (c *chunk) deadAt(tt chronon.Chronon) bool {
	return c.ttLo > tt || !c.live() && c.ttClosed <= tt
}

// Len reports the number of stored elements.
func (s *seq) Len() int { return s.n }

// chunks reports how many chunks hold the n elements.
func (s *seq) chunks() int { return (s.n + runSize - 1) / runSize }

// full reports whether chunk k lies wholly inside n: only then may its zone
// map be read.
func (s *seq) full(k int) bool { return (k+1)*runSize <= s.n }

func (s *seq) chunk(k int) *chunk {
	return s.spine[uint(k)/blockSize].chunks[uint(k)%blockSize]
}

// At returns the element at position i of the arrival order; i must lie in
// [0, Len()).
func (s *seq) At(i int) *element.Element {
	return s.chunk(i / runSize).elems[uint(i)%runSize]
}

// run returns chunk k's elements, the tail chunk cut at n.
func (s *seq) run(k int) []*element.Element {
	c := s.chunk(k)
	if end := s.n - k*runSize; end < runSize {
		return c.elems[:end]
	}
	return c.elems[:]
}

// push appends e and widens the tail chunk's zone map over it. The slot lies
// past every snapshot's n, and no snapshot reads the zone map of a chunk its
// n cuts; a new chunk hangs in a block slot no snapshot's n reaches, and a
// new block lands past every snapshot's capped spine.
func (s *seq) push(e *element.Element) {
	k := s.n / runSize
	if s.n%runSize == 0 {
		if k%blockSize == 0 {
			s.spine = append(s.spine, &block{edit: s.edit})
		}
		s.spine[k/blockSize].chunks[k%blockSize] = &chunk{edit: s.edit, zone: emptyZone()}
	}
	c := s.chunk(k)
	c.elems[s.n%runSize] = e
	c.widen(e)
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
// copying it — and first the block it must be rehung in, and the spine that
// block must be rehung on — if a snapshot may share it. Writing to a
// snapshot itself is a bug in the caller.
func (s *seq) own(k int) *chunk {
	if s.frozen {
		panic("storage: write to a frozen snapshot")
	}
	b := s.spine[k/blockSize]
	c := b.chunks[k%blockSize]
	if c.edit == s.edit {
		return c
	}
	if b.edit != s.edit {
		if s.spineEdit != s.edit {
			s.spine = append([]*block(nil), s.spine...)
			s.spineEdit = s.edit
		}
		cp := *b
		cp.edit = s.edit
		b = &cp
		s.spine[k/blockSize] = b
	}
	cp := *c
	cp.edit = s.edit
	b.chunks[k%blockSize] = &cp
	return &cp
}

// Search returns the first index whose element satisfies pred, Len() when
// none does; pred must be monotone over the sequence. Two binary searches: over
// the chunks by their first element — the answer lies in the last chunk
// whose first element fails pred — then inside that one chunk, so no probe
// pays an index split and the second half probes one array.
func (s *seq) Search(pred func(*element.Element) bool) int {
	lo, hi := 0, s.chunks()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s.chunk(mid).elems[0]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	run := s.run(lo - 1)
	a, b := 1, len(run) // run[0] fails pred
	for a < b {
		mid := int(uint(a+b) >> 1)
		if pred(run[mid]) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return (lo-1)*runSize + a
}

// index finds old by pointer identity, -1 when it is not stored. Elements
// arrive in tt⊢ order, so it binary-searches to the stretch sharing old's
// TTStart and walks that — replaying a log of closes stays O(n log n). Only
// the heap can hold a history whose tt order broke; that falls through to
// the scan.
func (s *seq) index(old *element.Element) int {
	i := s.Search(func(e *element.Element) bool { return e.TTStart >= old.TTStart })
	for ; i < s.n; i++ {
		if e := s.At(i); e == old {
			return i
		} else if e.TTStart != old.TTStart {
			break
		}
	}
	for k := range s.chunks() {
		for j, e := range s.run(k) {
			if e == old {
				return k*runSize + j
			}
		}
	}
	return -1
}

// Replace substitutes repl for old (matched by pointer identity) and books
// a close against the chunk it landed in — its close count and the greatest
// tt⊣ of its zone map — copying only that chunk. Both orders are unchanged: a
// closed clone keeps its TTStart and valid time. A missing old is a no-op;
// replacing in a snapshot panics.
func (s *seq) Replace(old, repl *element.Element) {
	if s.frozen {
		panic("storage: replace in a frozen snapshot")
	}
	i := s.index(old)
	if i < 0 {
		return
	}
	c := s.own(i / runSize)
	c.elems[i%runSize] = repl
	if !repl.Current() {
		if old.Current() {
			c.closes++
		}
		c.closedAt(repl.TTEnd)
	}
}

// Scan visits every element in arrival order; it returns the number touched.
func (s *seq) Scan(visit func(*element.Element) bool) int {
	for k := range s.chunks() {
		for i, e := range s.run(k) {
			if !visit(e) {
				return k*runSize + i + 1
			}
		}
	}
	return s.n
}

// seqOf exposes the sequence under st; every Store in this package has one.
func seqOf(st Store) *seq {
	switch s := st.(type) {
	case *RunStore:
		return &s.seq
	case *IndexedEventStore:
		return &s.seq
	}
	panic(fmt.Sprintf("storage: %T is not a sequence-backed store", st))
}

// Runs yields st's elements in arrival order one run at a time: runSize
// elements each, the last one shorter. It is how the scan paths above
// storage read a store — the slices are the store's own chunks, read-only,
// which is exactly the contract a Snapshot provides.
func Runs(st Store) element.Runs {
	s := seqOf(st)
	return func(yield func([]*element.Element) bool) {
		for k := range s.chunks() {
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
