package storage

import (
	"fmt"
	"hash/maphash"
	"math"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// A chunk is columns, from its first slot on. push writes each version it is
// handed straight into the tail chunk's columns block — the surrogates, tt⊢
// and valid-time columns, the value kinds and words, and the strings into
// the chunk's arena, each distinct one once — and its tt⊣ into the chunk's
// tt⊣ column; the element itself is not kept. A block holds no pointer but
// the four at its head, so the collector marks a chunk in a handful of words
// where it would mark 256 elements, their value arrays and their strings.
//
// A slot is written once, by the push that fills it, past every snapshot's
// n; after that the one thing a close changes, a version's tt⊣, lives in the
// chunk's tt⊣ column, which a close copies before writing unless the live
// side allocated it since the last snapshot (seq.own): the same contract as
// a Replace's chunk copy. The arena is the one column that moves: the tail
// chunk's grows as strings arrive, and is cut to its exact size when the
// chunk fills, each time in a chunk header of the live side's own, so a
// pinned view keeps the arena it read (push). Reads filter on the columns
// and name the slots they take (Answer): nothing is materialized until a
// consumer that needs rows asks (Answer.Elements), and then into one slab
// per answer; the cold paths — Scan, Elements, At — materialize whole
// chunks, each into fresh memory.

// columns is one chunk's versions, shaped by the first version pushed into
// it: every version of one relation shares its schema's shape. The slices
// come first, so that the collector, which scans an object no further than
// its last pointer, reads a few words of it.
type columns struct {
	kinds []element.ValueKind // runSize·nv value kinds, slot-major: invariant then varying
	words []int64             // the matching words (Value.Word); a string's is off<<32 | len into the arena
	users []chronon.Chronon   // runSize·nUser user-defined times, slot-major
	vtHi  []chronon.Chronon   // an interval chunk's vt⊣ column; nil for events, whose end is their start

	nInv, nVar, nUser int // the shape every version of the chunk shares
	event             bool

	es, os  [runSize]surrogate.Surrogate
	ttStart [runSize]chronon.Chronon
	vtLo    [runSize]chronon.Chronon // Timestamp.Start
}

// newColumns is an empty block shaped like e.
func newColumns(e *element.Element) *columns {
	c := &columns{nInv: len(e.Invariant), nVar: len(e.Varying), nUser: len(e.UserTimes), event: e.VT.IsEvent()}
	if nv := c.nInv + c.nVar; nv > 0 {
		c.kinds = make([]element.ValueKind, runSize*nv)
		c.words = make([]int64, runSize*nv)
	}
	if c.nUser > 0 {
		c.users = make([]chronon.Chronon, runSize*c.nUser)
	}
	if !c.event {
		c.vtHi = make([]chronon.Chronon, runSize)
	}
	return c
}

// fits reports whether e has the block's shape.
func (c *columns) fits(e *element.Element) bool {
	return len(e.Invariant) == c.nInv && len(e.Varying) == c.nVar && len(e.UserTimes) == c.nUser &&
		e.VT.IsEvent() == c.event
}

// MaxStringBytes is the most string bytes a relation lets one version hold:
// the bound a write-ahead-log frame puts on every journaled mutation. At
// runSize versions a chunk's arena then stays inside the 32-bit offsets of
// its words (vec.ArenaWord), which push checks as the arena grows.
const MaxStringBytes = 16 << 20

// StringBytes totals the bytes of the string values of e.
func StringBytes(e *element.Element) int {
	n := 0
	for _, vs := range [2][]element.Value{e.Invariant, e.Varying} {
		for _, v := range vs {
			if s, ok := v.Str(); ok {
				n += len(s)
			}
		}
	}
	return n
}

// push appends e: it writes e into slot n of the tail chunk — a new chunk,
// shaped like e, when the last one is full — and widens the chunk's zone map
// over it. The slot lies past every snapshot's n, and no snapshot reads the
// zone map of a chunk its n cuts; a new chunk hangs in a block slot no
// snapshot's n reaches, and a new block lands past every snapshot's capped
// spine. The arena is written past every snapshot's strings and, when it
// must move, re-hung in a chunk header the live side owns (intern). A
// version of another shape than its chunk's, or strings past what a chunk's
// arena can address, are a caller's bug: push panics.
func (s *seq) push(e *element.Element) {
	k, j := s.n/runSize, s.n%runSize
	if j == 0 {
		if k%blockSize == 0 {
			s.spine = append(s.spine, &block{edit: s.edit})
		}
		s.spine[k/blockSize].chunks[k%blockSize] = &chunk{edit: s.edit, slotsEdit: s.edit, zone: emptyZone(),
			col: newColumns(e), ttEnd: new([runSize]chronon.Chronon)}
		s.arena.reset()
	}
	c := s.chunk(k)
	col := c.col
	if !col.fits(e) {
		panic(fmt.Sprintf("storage: version %v does not have its chunk's shape (%d+%d values, %d user times, event %v)",
			e.ES, col.nInv, col.nVar, col.nUser, col.event))
	}
	col.es[j], col.os[j], col.ttStart[j], col.vtLo[j] = e.ES, e.OS, e.TTStart, e.VT.Start()
	c.ttEnd[j] = e.TTEnd
	if !col.event {
		col.vtHi[j] = e.VT.End()
	}
	t := j * (col.nInv + col.nVar)
	for _, v := range e.Invariant {
		col.kinds[t], col.words[t] = v.Kind(), s.word(k, v)
		t++
	}
	for _, v := range e.Varying {
		col.kinds[t], col.words[t] = v.Kind(), s.word(k, v)
		t++
	}
	copy(col.users[j*col.nUser:], e.UserTimes)
	c = s.chunk(k) // intern may have re-hung it
	c.widen(e)
	s.n++
	if j == runSize-1 && len(s.arena.buf) < cap(s.arena.buf) {
		// The chunk is full: its arena is cut to its size, once.
		s.own(k).strs = string(s.arena.buf)
	}
}

// word is v's column word: Value.Word, or for a string its place in the
// arena of chunk k (intern).
func (s *seq) word(k int, v element.Value) int64 {
	if str, ok := v.Str(); ok {
		return s.intern(k, str)
	}
	return v.Word()
}

// arena is the live side's state for the tail chunk's strings: the arena's
// bytes, of which the chunk's strs reads the whole capacity, and an
// open-addressed table of the distinct strings in it — each one's word plus
// one, zero for an empty slot — that push probes so that a repeated string
// — a sensor's name, a unit — is stored once. It is reset for each new
// chunk and never read by a snapshot.
type arena struct {
	buf   []byte
	seen  []int64
	count int
}

// arenaSeed is the seed the arena's table hashes with.
var arenaSeed = maphash.MakeSeed()

// reset readies a for a new chunk, keeping its table.
func (a *arena) reset() {
	a.buf, a.count = nil, 0
	clear(a.seen)
}

// intern returns the word of str in the arena of the tail chunk k, appending
// it when the arena does not hold it yet. The bytes land past every slot's
// string that any view reads; when they do not fit, the arena moves to a
// larger buffer, hung in a chunk header the live side owns (own), so that a
// view pinned before reads the buffer it read.
func (s *seq) intern(k int, str string) int64 {
	if len(str) == 0 {
		return 0
	}
	a := &s.arena
	if len(a.seen) == 0 {
		a.seen = make([]int64, 64)
	}
	mask := uint64(len(a.seen) - 1)
	h := maphash.String(arenaSeed, str) & mask
	for ; a.seen[h] != 0; h = (h + 1) & mask {
		w := a.seen[h] - 1
		if off, n := int(uint64(w)>>32), int(uint32(w)); n == len(str) && string(a.buf[off:off+n]) == str {
			return w
		}
	}
	if len(a.buf)+len(str) > cap(a.buf) {
		buf := make([]byte, len(a.buf), max(2*cap(a.buf), len(a.buf)+len(str), 512))
		copy(buf, a.buf)
		a.buf = buf
		s.own(k).strs = unsafe.String(unsafe.SliceData(buf), cap(buf))
	}
	if len(a.buf) > math.MaxUint32 {
		panic("storage: a chunk's strings overflow its arena")
	}
	w := vec.ArenaWord(len(a.buf), len(str))
	a.buf = append(a.buf, str...)
	a.seen[h] = w + 1
	if a.count++; 2*a.count > len(a.seen) {
		a.rehash()
	}
	return w
}

// rehash doubles the arena's table.
func (a *arena) rehash() {
	old := a.seen
	a.seen = make([]int64, 2*len(old))
	mask := uint64(len(a.seen) - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		off, n := int(uint64(w-1)>>32), int(uint32(w-1))
		h := maphash.Bytes(arenaSeed, a.buf[off:off+n]) & mask
		for a.seen[h] != 0 {
			h = (h + 1) & mask
		}
		a.seen[h] = w
	}
}

// end is slot j's Timestamp.End.
func (c *columns) end(j int) chronon.Chronon {
	if c.event {
		return c.vtLo[j]
	}
	return c.vtHi[j]
}

// stampKind is the chunk's valid time-stamp kind.
func (c *columns) stampKind() element.TimestampKind {
	if c.event {
		return element.EventStamp
	}
	return element.IntervalStamp
}

// stamp writes slot j's surrogates and timestamps into dst and leaves its
// lists nil: what a search or a label check reads.
func (c *chunk) stamp(j int, dst *element.Element) {
	col := c.col
	*dst = element.Element{ES: col.es[j], OS: col.os[j], TTStart: col.ttStart[j], TTEnd: c.ttEnd[j],
		VT: element.Stamp(col.stampKind(), col.vtLo[j], col.end(j))}
}

// load writes slot j's version into *e, with its values in vals (nInv+nVar
// long) and its user times in users (nUser long): lists, then slot. It
// writes through the pointer, so that a version loaded into memory the
// caller keeps — a slab's slot, an encoder's Version — is not built
// elsewhere and copied, 128 bytes a slot.
func (c *chunk) load(j int, vals []element.Value, users []chronon.Chronon, e *element.Element) {
	c.col.lists(vals, users, e)
	c.slot(j, e)
}

// lists points e's lists at vals (nInv+nVar long) and users (nUser long),
// as every version of the chunk has them: nil where the chunk's versions
// have no values or user times.
func (c *columns) lists(vals []element.Value, users []chronon.Chronon, e *element.Element) {
	nv := c.nInv + c.nVar
	e.Invariant, e.Varying, e.UserTimes = nil, nil, nil
	if c.nInv > 0 {
		e.Invariant = vals[:c.nInv:c.nInv]
	}
	if c.nVar > 0 {
		e.Varying = vals[c.nInv:nv:nv]
	}
	if c.nUser > 0 {
		e.UserTimes = users[:c.nUser:c.nUser]
	}
}

// slot writes slot j's surrogates and stamps into *e, and its values and
// user times into the lists lists gave e.
func (c *chunk) slot(j int, e *element.Element) {
	col := c.col
	e.ES, e.OS, e.TTStart, e.TTEnd = col.es[j], col.os[j], col.ttStart[j], c.ttEnd[j]
	if col.event {
		e.VT = element.EventAt(col.vtLo[j])
	} else {
		e.VT = element.Stamp(element.IntervalStamp, col.vtLo[j], col.vtHi[j])
	}
	at := j * (col.nInv + col.nVar)
	for t := range e.Invariant {
		e.Invariant[t] = vec.ArenaValue(col.kinds[at+t], col.words[at+t], c.strs)
	}
	at += len(e.Invariant)
	for t := range e.Varying {
		e.Varying[t] = vec.ArenaValue(col.kinds[at+t], col.words[at+t], c.strs)
	}
	copy(e.UserTimes, col.users[j*col.nUser:(j+1)*col.nUser])
}

// view is the first m slots of chunk c as a fold reads them in place: its
// columns and its tt⊣ column, sliced, not copied, with load as the view's
// Load.
func (c *chunk) view(m int, load func(int) *element.Element) vec.Cols {
	col := c.col
	nv := col.nInv + col.nVar
	v := vec.Cols{
		N: m, Event: col.event, ES: col.es[:m], OS: col.os[:m],
		TTStart: col.ttStart[:m], TTEnd: c.ttEnd[:m], VTStart: col.vtLo[:m],
		NInv: col.nInv, NVar: col.nVar, Kinds: col.kinds[:m*nv], Words: col.words[:m*nv], Strs: c.strs,
		NUser: col.nUser, Users: col.users[:m*col.nUser], Load: load,
	}
	if !col.event {
		v.VTEnd = col.vtHi[:m]
	}
	return v
}

// slab is memory for n materialized versions of one shape or several: the
// element structs and the value and user-time arrays their lists slice.
type slab struct {
	els   []element.Element
	vals  []element.Value
	users []chronon.Chronon
}

// grow readies s for n versions holding nv values and nu user times in all,
// reusing what it has when it is large enough.
func (s *slab) grow(n, nv, nu int) {
	if cap(s.els) < n {
		s.els = make([]element.Element, n)
	}
	if cap(s.vals) < nv {
		s.vals = make([]element.Value, nv)
	}
	if cap(s.users) < nu {
		s.users = make([]chronon.Chronon, nu)
	}
	s.els, s.vals, s.users = s.els[:n], s.vals[:nv], s.users[:nu]
}

// fill materializes slots [0, len(out)) of chunk c into s and points out's
// entries at them.
func (s *slab) fill(c *chunk, out []*element.Element) {
	nv, nu := c.col.nInv+c.col.nVar, c.col.nUser
	s.grow(len(out), len(out)*nv, len(out)*nu)
	for j := range out {
		c.load(j, s.vals[j*nv:(j+1)*nv], s.users[j*nu:(j+1)*nu], &s.els[j])
		out[j] = &s.els[j]
	}
}

// slots is how many of chunk k's slots lie inside n.
func (s *seq) slots(k int) int { return min(runSize, s.n-k*runSize) }

// materialize returns chunk k's versions in fresh memory.
func (s *seq) materialize(k int) []*element.Element {
	out := make([]*element.Element, s.slots(k))
	var sl slab
	sl.fill(s.chunk(k), out)
	return out
}

// one materializes slot j of chunk c into s, which the next call
// overwrites.
func (s *slab) one(c *chunk, j int) *element.Element {
	col := c.col
	s.grow(1, col.nInv+col.nVar, col.nUser)
	c.load(j, s.vals, s.users, &s.els[0])
	return &s.els[0]
}

// The column filters: the per-slot loops of the walks, each in a function of
// its own, called once a visited chunk and never inlined: the loop then has a
// handful of live values whatever the walk around it carries. Inlined into a
// walk that also records spans, the time-slice of a 20 k-element relation
// read +14 % against the walk before spans; out of line it reads −15 %
// (BenchmarkScanGeneral, alternated). Each adds the slots it takes to the
// span; only slots [from, to) are read.

//go:noinline
func (sp *Span) presentCols(c *chunk, to int, tt chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	for j := range to {
		if col.ttStart[j] <= tt && tt < tte[j] {
			sp.take(j)
		}
	}
}

//go:noinline
func (sp *Span) currentCols(c *chunk, to int) {
	tte := c.ttEnd
	for j := range to {
		if tte[j] == chronon.Forever {
			sp.take(j)
		}
	}
}

// validCols and asOfCols read a valid-time window as the inclusive
// [lo, last] (plan.Query.VTWindow).
//
//go:noinline
func (sp *Span) validCols(c *chunk, from, to int, lo, last chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	if col.event {
		for j := from; j < to; j++ {
			if tte[j] == chronon.Forever && lo <= col.vtLo[j] && col.vtLo[j] <= last {
				sp.take(j)
			}
		}
		return
	}
	for j := from; j < to; j++ {
		if tte[j] == chronon.Forever && col.vtLo[j] <= last && lo < col.vtHi[j] {
			sp.take(j)
		}
	}
}

//go:noinline
func (sp *Span) asOfCols(c *chunk, to int, lo, last, tt chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	for j := range to {
		if col.ttStart[j] <= tt && tt < tte[j] && col.vtLo[j] <= last &&
			(col.event && lo <= col.vtLo[j] || !col.event && lo < col.vtHi[j]) {
			sp.take(j)
		}
	}
}

// Gather returns the versions at positions pos of st, in that order,
// materialized into one slab.
func Gather(st Store, pos []int) []*element.Element {
	s := seqOf(st)
	out := make([]*element.Element, len(pos))
	nv, nu := 0, 0
	for _, i := range pos {
		col := s.chunk(i / runSize).col
		nv, nu = nv+col.nInv+col.nVar, nu+col.nUser
	}
	var sl slab
	sl.grow(len(pos), nv, nu)
	v, u := 0, 0
	for o, i := range pos {
		c := s.chunk(i / runSize)
		cv, cu := c.col.nInv+c.col.nVar, c.col.nUser
		c.load(i%runSize, sl.vals[v:v+cv], sl.users[u:u+cu], &sl.els[o])
		out[o] = &sl.els[o]
		v, u = v+cv, u+cu
	}
	return out
}
