package storage

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
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
// of a spine. Chunk k holds elements [k·runSize, (k+1)·runSize). A chunk
// holds element pointers while it fills and, on every label, sealed columns
// once it is full (columns.go); a full chunk stays elements only when its
// versions' shapes differ. Apart from that, once Compact has measured it, it is
// also sealed run k of the packed-size count; measured chunks form a prefix,
// and measuring writes nothing into them (compact.go).
//
// The copy-on-write contract: a snapshot is a copy of this header with the
// spine capped at its length, and reads only slots [0, n) and, of the full
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
	sealed int // leading chunks that are sealed runs: measured by Compact
	// cols is how many leading chunks are sealed columns, or were left
	// elements by a sealing that refused their mixed shapes: Compact seals
	// from there.
	cols int
	// kind is the organization's label (RunStore).
	kind Kind
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

// zoneOf is the zone map push and Replace would have left over full chunk
// c had c.closes of its versions closed since they arrived, read off either
// form of the chunk.
func (c *chunk) zoneOf() zone {
	z := emptyZone()
	z.opened = c.closes
	var e element.Element
	for j := range runSize {
		if c.col != nil {
			c.col.stamp(j, c.ttEnd[j], &e)
			z.widen(&e)
		} else {
			z.widen(c.elems[j])
		}
	}
	return z
}

// vtMisses reports whether no element is valid anywhere in [lo, hi),
// vtMissesAt whether none is valid at vt, and vtWithin whether every element
// has its whole valid time inside [lo, hi).
func (z *zone) vtMisses(lo, hi chronon.Chronon) bool { return z.vtLo >= hi || z.vtLast < lo }
func (z *zone) vtMissesAt(vt chronon.Chronon) bool   { return vt < z.vtLo || z.vtLast < vt }
func (z *zone) vtWithin(lo, hi chronon.Chronon) bool { return lo <= z.vtLo && z.vtLast < hi }

// chunk is runSize version slots and the zone map over them: element
// pointers while the chunk fills, and once it is full sealed columns
// (columns.go) — col and its tt⊣ column, elems nil.
type chunk struct {
	edit uint64
	// slotsEdit stamps the slot array — elems, or the tt⊣ column of a
	// sealed chunk — as edit stamps the chunk: a close writes into an array
	// stamped with an older value only after copying it. A new array is
	// stamped with the edit it was made under.
	slotsEdit uint64
	// closes counts every open→closed Replace that ever landed in the chunk,
	// sealed or not: closes are monotone and arrive in one sequence, so among
	// views of one store that see the chunk full, closes alone identifies
	// which of its elements are current.
	closes int
	zone
	elems *[runSize]*element.Element
	col   *columns
	ttEnd *[runSize]chronon.Chronon
}

// live reports whether any element of the full chunk is still current.
func (c *chunk) live() bool { return c.closes < c.opened }

// deadAt reports whether no element of the full chunk is present at tt:
// none had begun by tt, or every one had been closed by it.
func (c *chunk) deadAt(tt chronon.Chronon) bool {
	return c.ttLo > tt || !c.live() && c.ttClosed <= tt
}

// The slot readers: one field of slot j, from whichever form the chunk has.

func (c *chunk) esAt(j int) surrogate.Surrogate {
	if c.col != nil {
		return c.col.es[j]
	}
	return c.elems[j].ES
}

func (c *chunk) ttStartAt(j int) chronon.Chronon {
	if c.col != nil {
		return c.col.ttStart[j]
	}
	return c.elems[j].TTStart
}

func (c *chunk) ttEndAt(j int) chronon.Chronon {
	if c.col != nil {
		return c.ttEnd[j]
	}
	return c.elems[j].TTEnd
}

func (c *chunk) vtStartAt(j int) chronon.Chronon {
	if c.col != nil {
		return c.col.vtLo[j]
	}
	return c.elems[j].VT.Start()
}

// vtEndAt is slot j's exclusive valid-time end (exclusiveEnd).
func (c *chunk) vtEndAt(j int) chronon.Chronon {
	if c.col != nil {
		if c.col.event {
			return c.col.vtLo[j].Add(1)
		}
		return c.col.vtHi[j]
	}
	return exclusiveEnd(c.elems[j])
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
// [0, Len()). A sealed version is materialized, into memory of its own.
func (s *seq) At(i int) *element.Element {
	c := s.chunk(i / runSize)
	if c.col == nil {
		return c.elems[uint(i)%runSize]
	}
	return fresh(c, i%runSize)
}

// Copy returns a copy of the version at position i in memory of its own,
// the caller's to modify: an element chunk's element copied shallowly —
// stored elements are immutable, so the two may share their values — and a
// sealed chunk's materialized. What a close swaps in (ReplaceAt) starts as
// one.
func (s *seq) Copy(i int) *element.Element {
	c := s.chunk(i / runSize)
	if c.col == nil {
		cp := *c.elems[uint(i)%runSize]
		return &cp
	}
	return fresh(c, i%runSize)
}

// StampAt writes the surrogates and timestamps of the version at position
// i into dst, lists left nil, allocating nothing.
func (s *seq) StampAt(i int, dst *element.Element) {
	c, j := s.chunk(i/runSize), i%runSize
	if c.col != nil {
		c.col.stamp(j, c.ttEnd[j], dst)
		return
	}
	e := c.elems[j]
	*dst = element.Element{ES: e.ES, OS: e.OS, TTStart: e.TTStart, TTEnd: e.TTEnd, VT: e.VT}
}

// ESAt, TTStartAt and TTEndAt read one field of the version at position i.
func (s *seq) ESAt(i int) surrogate.Surrogate  { return s.chunk(i / runSize).esAt(i % runSize) }
func (s *seq) TTStartAt(i int) chronon.Chronon { return s.chunk(i / runSize).ttStartAt(i % runSize) }
func (s *seq) TTEndAt(i int) chronon.Chronon   { return s.chunk(i / runSize).ttEndAt(i % runSize) }

// run returns element chunk k's elements, the tail chunk cut at n. A
// sealed chunk has none: its readers go through its columns or
// materialize.
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
		s.spine[k/blockSize].chunks[k%blockSize] = &chunk{edit: s.edit, slotsEdit: s.edit, zone: emptyZone(),
			elems: new([runSize]*element.Element)}
	}
	c := s.chunk(k)
	c.elems[s.n%runSize] = e
	c.widen(e)
	s.n++
}

// sealChunk turns full element chunk k into columns, in a chunk the live
// side owns, so a view pinned before keeps the elements it saw. It reports
// whether the chunk is columns now; versions of mixed shapes stay elements.
func (s *seq) sealChunk(k int) bool {
	if c := s.chunk(k); c.col != nil {
		return true
	}
	col, tte := sealColumns(s.chunk(k).elems)
	if col == nil {
		return false
	}
	c := s.own(k)
	c.col, c.ttEnd, c.elems, c.slotsEdit = col, tte, nil, s.edit
	return true
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
// block must be rehung on — if a snapshot may share it. The copy shares the
// slot array: a write to a slot goes through ownSlots. Writing to a
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

// ownSlots is own that also copies the chunk's slot array — its element
// pointers, or a sealed chunk's tt⊣ column — when a snapshot may share it.
func (s *seq) ownSlots(k int) *chunk {
	c := s.own(k)
	if c.slotsEdit != s.edit {
		if c.col != nil {
			tte := *c.ttEnd
			c.ttEnd = &tte
		} else {
			els := *c.elems
			c.elems = &els
		}
		c.slotsEdit = s.edit
	}
	return c
}

// search returns the first position whose slot satisfies pred, Len() when
// none does; pred must be monotone over the sequence. Two binary searches:
// over the chunks by their first slot — the answer lies in the last chunk
// whose first slot fails pred — then inside that one chunk, so no probe
// pays an index split and the second half probes one chunk.
func (s *seq) search(pred func(c *chunk, j int) bool) int {
	lo, hi := 0, s.chunks()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s.chunk(mid), 0) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	c, n := s.chunk(lo-1), min(runSize, s.n-(lo-1)*runSize)
	a, b := 1, n // slot 0 fails pred
	for a < b {
		mid := int(uint(a+b) >> 1)
		if pred(c, mid) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return (lo-1)*runSize + a
}

// SearchES returns the first position whose element surrogate is at least
// es, on a sequence that ascends in surrogates.
func (s *seq) SearchES(es surrogate.Surrogate) int {
	return s.search(func(c *chunk, j int) bool { return c.esAt(j) >= es })
}

// SearchTT returns the first position whose tt⊢ is past tt — at or past it
// when inclusive — on a sequence in tt⊢ order.
func (s *seq) SearchTT(tt chronon.Chronon, inclusive bool) int {
	if inclusive {
		return s.search(func(c *chunk, j int) bool { return c.ttStartAt(j) >= tt })
	}
	return s.search(func(c *chunk, j int) bool { return c.ttStartAt(j) > tt })
}

// searchVTEnd returns the first position whose valid time reaches past lo,
// and searchVTStart the first that starts at or past hi, on the vt-ordered
// log.
func (s *seq) searchVTEnd(lo chronon.Chronon) int {
	return s.search(func(c *chunk, j int) bool { return c.vtEndAt(j) > lo })
}

func (s *seq) searchVTStart(hi chronon.Chronon) int {
	return s.search(func(c *chunk, j int) bool { return c.vtStartAt(j) >= hi })
}

// holds reports whether slot j of c holds the version old: the pointer
// itself in an element chunk; in a sealed one, which holds no pointer, the
// version with old's surrogate and tt⊣ — a version differs from its
// successors in its slot only in its tt⊣.
func (c *chunk) holds(j int, old *element.Element) bool {
	if c.col != nil {
		return c.col.es[j] == old.ES && c.ttEnd[j] == old.TTEnd
	}
	return c.elems[j] == old
}

// index finds the version old, -1 when it is not stored. Elements arrive in
// tt⊢ order, so it binary-searches to the stretch sharing old's TTStart and
// walks that — replaying a log of closes stays O(n log n). Only the heap
// can hold a history whose tt order broke; that falls through to the scan.
func (s *seq) index(old *element.Element) int {
	for i := s.SearchTT(old.TTStart, true); i < s.n; i++ {
		c, j := s.chunk(i/runSize), i%runSize
		if c.holds(j, old) {
			return i
		} else if c.ttStartAt(j) != old.TTStart {
			break
		}
	}
	for i := range s.n {
		if s.chunk(i/runSize).holds(i%runSize, old) {
			return i
		}
	}
	return -1
}

// Replace substitutes repl for old (see holds) and books a close against
// the chunk it landed in (ReplaceAt). A missing old is a no-op; replacing in
// a snapshot panics.
func (s *seq) Replace(old, repl *element.Element) {
	if s.frozen {
		panic("storage: replace in a frozen snapshot")
	}
	if i := s.index(old); i >= 0 {
		s.ReplaceAt(i, repl)
	}
}

// ReplaceAt puts repl in position i — the version there with its tt⊣
// finalized, nothing else changed — and books a close against the chunk:
// its close count and the greatest tt⊣ of its zone map, copying only that
// chunk and its slot array. An element chunk takes repl itself; a sealed
// chunk writes repl's tt⊣ into its tt⊣ column, and repl stays the caller's.
// Both orders are unchanged: a closed clone keeps its TTStart and valid
// time.
func (s *seq) ReplaceAt(i int, repl *element.Element) {
	if s.frozen {
		panic("storage: replace in a frozen snapshot")
	}
	c, j := s.ownSlots(i/runSize), i%runSize
	was := c.ttEndAt(j)
	if c.col != nil {
		c.ttEnd[j] = repl.TTEnd
	} else {
		c.elems[j] = repl
	}
	if !repl.Current() {
		if was == chronon.Forever {
			c.closes++
		}
		c.closedAt(repl.TTEnd)
	}
}

// Scan visits every element in arrival order; it returns the number
// touched. A sealed chunk is materialized for the visit, into memory the
// visitor may keep.
func (s *seq) Scan(visit func(*element.Element) bool) int {
	for k := range s.chunks() {
		for i, e := range s.materialize(k) {
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
// elements each, the last one shorter. An element chunk's run is the
// store's own slots, read-only, which is exactly the contract a Snapshot
// provides; a sealed chunk's is materialized into fresh memory, so Runs is
// for the cold paths that keep what they read — snapshot, classify,
// rebuild, verify. A scan that keeps nothing takes ScanRuns.
func Runs(st Store) element.Runs {
	s := seqOf(st)
	return func(yield func([]*element.Element) bool) {
		for k := range s.chunks() {
			if !yield(s.materialize(k)) {
				return
			}
		}
	}
}

// ScanRuns is Runs for a reader that keeps no element it is handed — only
// values copied out of them: every sealed chunk is materialized into the
// same scratch, which the next run overwrites, so a scan costs one chunk's
// memory however long the store.
func ScanRuns(st Store) element.Runs {
	s := seqOf(st)
	return func(yield func([]*element.Element) bool) {
		var sl slab
		var ptrs []*element.Element
		for k := range s.chunks() {
			run := s.materialized(k, &sl, &ptrs)
			if !yield(run) {
				return
			}
		}
	}
}

// materialized is chunk k's elements: its own slots, or the sealed chunk
// loaded into sl, pointed at by *ptrs.
func (s *seq) materialized(k int, sl *slab, ptrs *[]*element.Element) []*element.Element {
	c := s.chunk(k)
	if c.col == nil {
		return s.run(k)
	}
	if *ptrs == nil {
		*ptrs = make([]*element.Element, runSize)
	}
	sl.fill(c, 0, runSize, *ptrs)
	return *ptrs
}

// Elements flattens the store into one freshly allocated slice in arrival
// order. It costs a copy of every pointer; readers that can take the
// elements a run at a time use Runs.
func Elements(st Store) []*element.Element {
	out := make([]*element.Element, 0, st.Len())
	Runs(st)(func(run []*element.Element) bool { out = append(out, run...); return true })
	return out
}
