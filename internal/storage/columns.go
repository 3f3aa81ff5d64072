package storage

import (
	"math"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// A sealed chunk is columns. On the vt-ordered log a chunk is sealed the
// moment it fills (push), and Compact seals whatever full chunk a relabel
// left as elements: its runSize versions are copied into one columns block
// — the surrogates, tt⊢ and valid-time columns, the value kinds and words,
// one string arena — and a tt⊣ column of its own, and the chunk lets go of
// its element pointers. A block holds no pointer but the four at its head,
// so the collector marks a sealed chunk in a handful of words where it
// marked 256 elements, their value arrays and their strings.
//
// A block is immutable. The one thing a close changes, a version's tt⊣,
// lives in the chunk's tt⊣ column, which a close copies before writing
// unless the live side allocated it since the last snapshot (seq.own): the
// same contract as a Replace's chunk copy. Reads filter on the columns and
// materialize only the versions of their answer, into one slab per answer
// (answer.finish); the cold paths — Scan, Runs, Elements, At — materialize
// whole chunks, each into fresh memory.

// columns is one sealed chunk's versions. The slices and the arena come
// first, so that the collector, which scans an object no further than its
// last pointer, reads a few words of it.
type columns struct {
	kinds []element.ValueKind // runSize·nv value kinds, slot-major: invariant then varying
	words []int64             // the matching words (Value.Word); a string's is off<<32 | len into strs
	users []chronon.Chronon   // runSize·nUser user-defined times, slot-major
	vtHi  []chronon.Chronon   // an interval chunk's vt⊣ column; nil for events, whose end is their start
	strs  string              // the string values' bytes, each distinct one once

	nInv, nVar, nUser int // the shape every version of the chunk shares
	event             bool
	// nilInv, nilVar and nilUsers say whether a version's list that the
	// shape makes empty is nil or an empty slice, so that a materialized
	// version is the stored one field for field.
	nilInv, nilVar, nilUsers bool

	es, os  [runSize]surrogate.Surrogate
	ttStart [runSize]chronon.Chronon
	vtLo    [runSize]chronon.Chronon // Timestamp.Start
}

// sealColumns copies a full chunk's versions into columns and a tt⊣ column.
// Versions that do not share one shape — value and user-time counts, stamp
// kind — or whose strings overflow the arena's offsets stay elements: it
// returns nil. Every version of one relation shares its schema's shape.
func sealColumns(run *[runSize]*element.Element) (*columns, *[runSize]chronon.Chronon) {
	e0 := run[0]
	c := &columns{
		nInv: len(e0.Invariant), nVar: len(e0.Varying), nUser: len(e0.UserTimes), event: e0.VT.IsEvent(),
		nilInv: e0.Invariant == nil, nilVar: e0.Varying == nil, nilUsers: e0.UserTimes == nil,
	}
	strLen := 0
	for _, e := range run {
		if len(e.Invariant) != c.nInv || len(e.Varying) != c.nVar || len(e.UserTimes) != c.nUser ||
			e.VT.IsEvent() != c.event ||
			(c.nInv == 0 && (e.Invariant == nil) != c.nilInv) || (c.nVar == 0 && (e.Varying == nil) != c.nilVar) ||
			(c.nUser == 0 && (e.UserTimes == nil) != c.nilUsers) {
			return nil, nil
		}
		strLen += stringBytes(e.Invariant) + stringBytes(e.Varying)
	}
	if strLen > math.MaxUint32 {
		return nil, nil
	}
	nv := c.nInv + c.nVar
	if nv > 0 {
		c.kinds = make([]element.ValueKind, runSize*nv)
		c.words = make([]int64, runSize*nv)
	}
	if c.nUser > 0 {
		c.users = make([]chronon.Chronon, 0, runSize*c.nUser)
	}
	if !c.event {
		c.vtHi = make([]chronon.Chronon, runSize)
	}
	// A string repeated in the chunk — a sensor's name, a unit — is stored
	// once. The map is made for the first string, which may have no bytes.
	var arena []byte
	var seen map[string]int64
	if strLen > 0 {
		arena = make([]byte, 0, strLen)
	}
	tte := new([runSize]chronon.Chronon)
	for j, e := range run {
		c.es[j], c.os[j], c.ttStart[j], tte[j] = e.ES, e.OS, e.TTStart, e.TTEnd
		c.vtLo[j] = e.VT.Start()
		if !c.event {
			c.vtHi[j] = e.VT.End()
		}
		t := j * nv
		for _, vs := range [2][]element.Value{e.Invariant, e.Varying} {
			for _, v := range vs {
				c.kinds[t] = v.Kind()
				if s, ok := v.Str(); ok {
					w, ok := seen[s]
					if !ok {
						w = vec.ArenaWord(len(arena), len(s))
						arena = append(arena, s...)
						if seen == nil {
							seen = make(map[string]int64)
						}
						seen[s] = w
					}
					c.words[t] = w
				} else {
					c.words[t] = v.Word()
				}
				t++
			}
		}
		c.users = append(c.users, e.UserTimes...)
	}
	c.strs = string(arena) // one copy, at the arena's exact size
	return c, tte
}

// stringBytes totals the bytes of the string values in vs.
func stringBytes(vs []element.Value) int {
	n := 0
	for _, v := range vs {
		if s, ok := v.Str(); ok {
			n += len(s)
		}
	}
	return n
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

// stamp writes slot j's surrogates and timestamps, closed at tte, into dst
// and leaves its lists nil: what a search or a label check reads.
func (c *columns) stamp(j int, tte chronon.Chronon, dst *element.Element) {
	*dst = element.Element{ES: c.es[j], OS: c.os[j], TTStart: c.ttStart[j], TTEnd: tte,
		VT: element.Stamp(c.stampKind(), c.vtLo[j], c.end(j))}
}

// load writes slot j's version, closed at tte, into dst, with its values
// in vals (nInv+nVar long) and its user times in users (nUser long).
func (c *columns) load(j int, tte chronon.Chronon, dst *element.Element, vals []element.Value, users []chronon.Chronon) {
	c.stamp(j, tte, dst)
	nv := c.nInv + c.nVar
	kinds, words := c.kinds[j*nv:(j+1)*nv], c.words[j*nv:(j+1)*nv]
	for t := range vals {
		vals[t] = vec.ArenaValue(kinds[t], words[t], c.strs)
	}
	switch {
	case c.nInv > 0:
		dst.Invariant = vals[:c.nInv:c.nInv]
	case !c.nilInv:
		dst.Invariant = []element.Value{}
	}
	switch {
	case c.nVar > 0:
		dst.Varying = vals[c.nInv:nv:nv]
	case !c.nilVar:
		dst.Varying = []element.Value{}
	}
	switch {
	case c.nUser > 0:
		copy(users, c.users[j*c.nUser:(j+1)*c.nUser])
		dst.UserTimes = users[:c.nUser:c.nUser]
	case !c.nilUsers:
		dst.UserTimes = []chronon.Chronon{}
	}
}

// view is sealed chunk c as a fold reads it in place: its columns and its
// tt⊣ column, sliced, not copied, with load as the view's Load.
func (c *chunk) view(load func(int) *element.Element) vec.Cols {
	col := c.col
	return vec.Cols{
		N: runSize, Event: col.event, ES: col.es[:], OS: col.os[:],
		TTStart: col.ttStart[:], TTEnd: c.ttEnd[:], VTStart: col.vtLo[:], VTEnd: col.vtHi,
		NInv: col.nInv, NVar: col.nVar, Kinds: col.kinds, Words: col.words, Strs: col.strs,
		NUser: col.nUser, Users: col.users, Load: load,
	}
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

// fill materializes slots [from, to) of sealed chunk c into s, which grow
// has readied, and points out's first to−from entries at them.
func (s *slab) fill(c *chunk, from, to int, out []*element.Element) {
	col, nv, nu := c.col, c.col.nInv+c.col.nVar, c.col.nUser
	s.grow(to-from, (to-from)*nv, (to-from)*nu)
	for j := from; j < to; j++ {
		t := j - from
		col.load(j, c.ttEnd[j], &s.els[t], s.vals[t*nv:(t+1)*nv], s.users[t*nu:(t+1)*nu])
		out[t] = &s.els[t]
	}
}

// materialize returns chunk k's versions in fresh memory when it is sealed,
// and its own element slots, read-only, when it is not.
func (s *seq) materialize(k int) []*element.Element {
	c := s.chunk(k)
	if c.col == nil {
		return s.run(k)
	}
	out := make([]*element.Element, runSize)
	var sl slab
	sl.fill(c, 0, runSize, out)
	return out
}

// answer is a read's result as a walk builds it: the elements of element
// chunks as they lie, and, for a version of a sealed chunk, a nil place
// and its position in want. finish materializes every wanted version into
// one slab and fills the places, so an answer costs one allocation of each
// kind however many sealed chunks it draws on. On the vt-ordered log, which
// seals, finish copies the element chunks' elements into the slab too.
type answer struct {
	out  []*element.Element
	want []int
}

// take appends the version at position i, which a sealed chunk holds.
func (a *answer) take(i int) {
	a.out = append(a.out, nil)
	a.want = append(a.want, i)
}

// finish materializes the wanted versions — and, on the vt-ordered log,
// copies the rest — and returns the answer.
func (a *answer) finish(s *seq) []*element.Element {
	detach := s.kind == VTOrdered
	if len(a.want) == 0 && (!detach || len(a.out) == 0) {
		return a.out
	}
	n, nv, nu := 0, 0, 0
	for _, i := range a.want {
		col := s.chunk(i / runSize).col
		n, nv, nu = n+1, nv+col.nInv+col.nVar, nu+col.nUser
	}
	if detach {
		for _, e := range a.out {
			if e != nil {
				n, nv, nu = n+1, nv+len(e.Invariant)+len(e.Varying), nu+len(e.UserTimes)
			}
		}
	}
	var sl slab
	sl.grow(n, nv, nu)
	t, w, v, u := 0, 0, 0, 0
	for o, e := range a.out {
		if e != nil && !detach {
			continue
		}
		dst := &sl.els[t]
		if e != nil {
			v, u = copyElement(dst, e, sl.vals, sl.users, v, u)
		} else {
			i := a.want[w]
			c := s.chunk(i / runSize)
			col, j := c.col, i%runSize
			cv, cu := col.nInv+col.nVar, col.nUser
			col.load(j, c.ttEnd[j], dst, sl.vals[v:v+cv], sl.users[u:u+cu])
			w, v, u = w+1, v+cv, u+cu
		}
		a.out[o] = dst
		t++
	}
	return a.out
}

// copyElement writes a copy of e into dst, its lists into vals and users
// from v and u on, nil where e's are nil and empty where they are empty,
// and returns where the next copy's lists begin.
func copyElement(dst, e *element.Element, vals []element.Value, users []chronon.Chronon, v, u int) (int, int) {
	*dst = *e
	ni, nv := len(e.Invariant), len(e.Varying)
	if e.Invariant != nil {
		dst.Invariant = vals[v : v+ni : v+ni]
		copy(dst.Invariant, e.Invariant)
	}
	if e.Varying != nil {
		dst.Varying = vals[v+ni : v+ni+nv : v+ni+nv]
		copy(dst.Varying, e.Varying)
	}
	if e.UserTimes != nil {
		dst.UserTimes = users[u : u+len(e.UserTimes) : u+len(e.UserTimes)]
		copy(dst.UserTimes, e.UserTimes)
	}
	return v + ni + nv, u + len(e.UserTimes)
}

// The column filters: the per-slot loops of the walks over a sealed chunk,
// each out of line for the reason appendPresent gives. base is the chunk's
// first position; only slots [from, to) are read.

//go:noinline
func (a *answer) presentCols(c *chunk, base, to int, tt chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	for j := range to {
		if col.ttStart[j] <= tt && tt < tte[j] {
			a.take(base + j)
		}
	}
}

//go:noinline
func (a *answer) currentCols(c *chunk, base int) {
	tte := c.ttEnd
	for j := range runSize {
		if tte[j] == chronon.Forever {
			a.take(base + j)
		}
	}
}

//go:noinline
func (a *answer) validCols(c *chunk, base, from, to int, lo, hi chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	if col.event {
		for j := from; j < to; j++ {
			if tte[j] == chronon.Forever && lo <= col.vtLo[j] && col.vtLo[j] < hi {
				a.take(base + j)
			}
		}
		return
	}
	for j := from; j < to; j++ {
		if tte[j] == chronon.Forever && col.vtLo[j] < hi && lo < col.vtHi[j] {
			a.take(base + j)
		}
	}
}

//go:noinline
func (a *answer) asOfCols(c *chunk, base int, vt, tt chronon.Chronon) {
	col, tte := c.col, c.ttEnd
	for j := range runSize {
		if col.ttStart[j] <= tt && tt < tte[j] && col.vtLo[j] <= vt &&
			(col.event && vt == col.vtLo[j] || !col.event && vt < col.vtHi[j]) {
			a.take(base + j)
		}
	}
}

// Gather returns the versions at positions pos of st, in that order: an
// element chunk's own elements, read-only, and a sealed chunk's
// materialized, all of them into one slab.
func Gather(st Store, pos []int) []*element.Element {
	s := seqOf(st)
	a := answer{out: make([]*element.Element, 0, len(pos))}
	for _, i := range pos {
		if c := s.chunk(i / runSize); c.col != nil {
			a.take(i)
		} else {
			a.out = append(a.out, c.elems[i%runSize])
		}
	}
	return a.finish(s)
}
