package wire

// Parse once (DESIGN §15): the element memo, and the copier that makes the
// client's cached answers the caller's own.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ElementMemo remembers the elements a client's answers carried: for each,
// the bytes it was parsed from and the parse. An answer that carries an
// element again — every time-slice inside an interval carries it — copies
// the parse instead of parsing, but only when the element's encoding is the
// remembered bytes byte for byte. A parse is a function of those bytes and
// nothing else, so a copy is what parsing them again would have given; an
// element whose bytes changed (closed since, or another relation's element
// under the same surrogate) is parsed and remembered in their place.
//
// What the memo holds it holds privately and without pointers: the elements
// one answer taught it are a batch of integer records, in the order the
// answer carried them, with offsets into one string of the batch's bytes (its
// elements' encodings and their values' strings) and an index from surrogate
// to record by number — so the collector marks a batch's few headers, not
// its thousands of elements. A hit hands out a copy in the answer's own
// slabs — time-stamp pointers, attribute lists and user times are fresh,
// only strings, being immutable, are shared with the batch. A hit is looked
// for first among the few records after the one the element before was
// found in, then in the index. The memory it keeps is counted and bounded by
// Max in two generations: new batches go into the young one, which becomes
// the old one, the old one dropped, when it would pass Max/2; an element
// found in the old generation is copied into the young one. The zero value
// remembers nothing. Its methods are safe for concurrent use; concurrent
// parses look up concurrently and take the write lock once each, after
// parsing, to enter what they learned.
type ElementMemo struct {
	// Max is the most bytes the memo keeps, its index included. Set before
	// first use.
	Max int

	mu         sync.RWMutex
	young, old memoGen

	reused, parsed, hinted atomic.Uint64
}

// MemoStats is what an ElementMemo has done: the elements copied from it
// and the elements parsed through it, over every answer it accepted, of the
// copies those found after the element before without the index, and the
// bytes it holds now.
type MemoStats struct {
	Reused, Parsed, Hinted uint64
	Bytes                  int
}

// Stats reports the memo's counters.
func (m *ElementMemo) Stats() MemoStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MemoStats{Reused: m.reused.Load(), Parsed: m.parsed.Load(), Hinted: m.hinted.Load(), Bytes: m.young.bytes + m.old.bytes}
}

// memoBatch is what one answer taught the memo, and never changes.
type memoBatch struct {
	text string      // the entries' encodings, then their values' strings
	ents []memoEntry // in the order the answer carried them
	vals []memoValue // the entries' attribute lists, one run each
	ints []int64     // the entries' user times, one run each
	gen  uint64      // the generation it was entered in
}

// memoEntry is one remembered element: its parse as numbers, and where its
// encoding and lists are in its batch.
type memoEntry struct {
	es, os, ttStart, ttEnd uint64
	vt                     [3]int64 // event, start, end, as flags says
	raw, rawEnd            uint32   // text[raw:rawEnd] is the encoding, `{` to `}`
	vals, nInv, nVar       uint32   // vals[vals:vals+nInv] and the nVar after them
	ints, nUser            uint32   // ints[ints:ints+nUser]
	flags                  uint32
}

// The flags of an entry: whether it is current, which of its time-stamp's
// bounds it has, and which of its lists are not nil.
const (
	memoCurrent = 1 << iota
	memoEvent
	memoStart
	memoEnd
	memoInvariant // Invariant is not nil
	memoVarying
	memoUserTimes
)

// memoValue is one value of an entry: its kind is words[kind], or, when
// kind is memoOtherKind, text[kindAt:kindEnd]; its string text[str:strEnd];
// i, f, b and t its Int, Float, Bool and Time.
type memoValue struct {
	kind, b         uint8
	kindAt, kindEnd uint32
	str, strEnd     uint32
	i, t            int64
	f               float64
}

const memoOtherKind = 255

// memoGen is one generation: its batches, the index into them by element
// surrogate — what an element's encoding starts with; a hint, the bytes
// decide — to batch<<32 | entry, and the bytes it keeps alive.
type memoGen struct {
	batches []*memoBatch
	index   map[uint64]uint64
	bytes   int
	id      uint64
}

// memoIndexBytes is what an entry is counted for its place in the index: the
// key and value, the control byte, and the slack of a table that grows by
// doubling.
const memoIndexBytes = 64

// memoLookahead is how many records after the last one found an element is
// looked for among before the index: an answer that takes every second or
// third element of the answer that taught the memo finds each in the batch.
const memoLookahead = 4

// memoSpan is an element of the answer being parsed that the memo should
// learn: src[start:end], parsed into the answer's idx-th element.
type memoSpan struct{ start, end, idx int }

func (b *memoBatch) raw(e *memoEntry) string { return b.text[e.raw:e.rawEnd] }

// find returns the batch and entry for surrogate es whose bytes src begins
// with, whether it is in the old generation, and whether it was found after
// the element before's entry, hint, without the index. The caller holds the
// read lock.
func (m *ElementMemo) find(es uint64, src []byte, hint *memoBatch, after int) (b *memoBatch, e int, old, hinted bool) {
	if hint != nil {
		for k := after + 1; k < len(hint.ents) && k <= after+memoLookahead; k++ {
			if ent := &hint.ents[k]; ent.es == es {
				if hasPrefix(src, hint.raw(ent)) {
					return hint, k, hint.gen != m.young.id, true
				}
				break
			}
		}
	}
	for _, g := range [2]*memoGen{&m.young, &m.old} {
		if at, ok := g.index[es]; ok {
			b, e := g.batches[at>>32], int(uint32(at))
			if hasPrefix(src, b.raw(&b.ents[e])) {
				return b, e, g != &m.young, false
			}
		}
	}
	return nil, 0, false, false
}

func hasPrefix(src []byte, raw string) bool {
	return len(src) >= len(raw) && string(src[:len(raw)]) == raw
}

// ParseJSONMemo is ParseJSON through m: an element whose encoding m holds is
// copied from it, and an element parsed is remembered once the whole answer
// has been accepted. The answer is the one ParseJSON gives, byte-checked
// hits and all; a refused body leaves r untouched and teaches m nothing. A
// nil m, or one without a budget, is ParseJSON.
func (r *QueryResponse) ParseJSONMemo(src []byte, m *ElementMemo) error {
	if m == nil || m.Max <= 0 {
		return r.ParseJSON(src)
	}
	p := newParser(src)
	p.memo = m
	m.mu.RLock()
	err := parseIn(p, r, (*parser).queryResponse)
	m.mu.RUnlock()
	if err != nil {
		return err
	}
	m.reused.Add(uint64(p.reused))
	m.parsed.Add(uint64(p.seen - p.reused))
	m.hinted.Add(uint64(p.hinted))
	m.learn(src, r.Elements, p.pending)
	return nil
}

// kindCode is k's place in words, or memoOtherKind.
func kindCode(k string) uint8 {
	for i, w := range words[:6] {
		if k == w {
			return uint8(i)
		}
	}
	return memoOtherKind
}

// learn records the spans' elements in one batch and enters them in the
// young generation. A batch is as many spans, from the first, as half the
// budget holds; a young generation it would take past that becomes the old
// one first.
func (m *ElementMemo) learn(src []byte, els []Element, spans []memoSpan) {
	half := m.Max / 2
	size, text, vals, ints, n := 0, 0, 0, 0, 0
	for ; n < len(spans); n++ {
		s := spans[n]
		e := &els[s.idx]
		t, v, k := s.end-s.start, len(e.Invariant)+len(e.Varying), len(e.UserTimes)
		for _, vs := range [2][]Value{e.Invariant, e.Varying} {
			for i := range vs {
				t += len(vs[i].Str)
				if kindCode(vs[i].Kind) == memoOtherKind {
					t += len(vs[i].Kind)
				}
			}
		}
		c := t + v*int(unsafe.Sizeof(memoValue{})) + k*8 + int(unsafe.Sizeof(memoEntry{})) + memoIndexBytes
		if size+c > half {
			break
		}
		size, text, vals, ints = size+c, text+t, vals+v, ints+k
	}
	if n == 0 {
		return
	}
	// The batch is built before the lock is taken: readers wait only for
	// the index to take it in.
	b := &memoBatch{ents: make([]memoEntry, n), vals: make([]memoValue, 0, vals), ints: make([]int64, 0, ints)}
	buf := make([]byte, 0, text)
	for i, s := range spans[:n] {
		ent, e := &b.ents[i], &els[s.idx]
		ent.raw = uint32(len(buf))
		buf = append(buf, src[s.start:s.end]...)
		ent.rawEnd = uint32(len(buf))
		ent.es, ent.os, ent.ttStart, ent.ttEnd = e.ES, e.OS, uint64(e.TTStart), uint64(e.TTEnd)
		if e.Current {
			ent.flags |= memoCurrent
		}
		for f, ptr := range [3]*int64{e.VT.Event, e.VT.Start, e.VT.End} {
			if ptr != nil {
				ent.vt[f] = *ptr
				ent.flags |= memoEvent << f
			}
		}
		ent.vals, ent.nInv, ent.nVar = uint32(len(b.vals)), uint32(len(e.Invariant)), uint32(len(e.Varying))
		for f, vs := range [2][]Value{e.Invariant, e.Varying} {
			if vs != nil {
				ent.flags |= memoInvariant << f
			}
			for j := range vs {
				v := &vs[j]
				mv := memoValue{kind: kindCode(v.Kind), i: v.Int, t: v.Time, f: v.Float}
				if v.Bool {
					mv.b = 1
				}
				if mv.kind == memoOtherKind {
					mv.kindAt = uint32(len(buf))
					buf = append(buf, v.Kind...)
					mv.kindEnd = uint32(len(buf))
				}
				mv.str = uint32(len(buf))
				buf = append(buf, v.Str...)
				mv.strEnd = uint32(len(buf))
				b.vals = append(b.vals, mv)
			}
		}
		if e.UserTimes != nil {
			ent.flags |= memoUserTimes
		}
		ent.ints, ent.nUser = uint32(len(b.ints)), uint32(len(e.UserTimes))
		b.ints = append(b.ints, e.UserTimes...)
	}
	b.text = unsafe.String(unsafe.SliceData(buf), len(buf))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.young.bytes+size > half {
		m.old, m.young = m.young, memoGen{id: m.young.id + 1}
	}
	if m.young.index == nil {
		m.young.index = make(map[uint64]uint64, n)
	}
	b.gen = m.young.id
	at := uint64(len(m.young.batches)) << 32
	m.young.batches = append(m.young.batches, b)
	for i := range b.ents {
		m.young.index[b.ents[i].es] = at | uint64(i)
	}
	m.young.bytes += size
}

// recallEntry copies entry k of batch b into e, in the parser's slabs: its
// time-stamp's bounds in one run of the int slab, its two lists in one run
// of the value slab.
func (p *parser) recallEntry(e *Element, b *memoBatch, k int) {
	ent := &b.ents[k]
	left := p.left()
	e.ES, e.OS, e.TTStart, e.TTEnd, e.Current = ent.es, ent.os, int64(ent.ttStart), int64(ent.ttEnd), ent.flags&memoCurrent != 0
	if n := bits.OnesCount32(ent.flags & (memoEvent | memoStart | memoEnd)); n > 0 {
		bounds := p.ints.take(n, left)
		if ent.flags&memoEvent != 0 {
			bounds[0] = ent.vt[0]
			e.VT.Event, bounds = &bounds[0], bounds[1:]
		}
		if ent.flags&memoStart != 0 {
			bounds[0] = ent.vt[1]
			e.VT.Start, bounds = &bounds[0], bounds[1:]
		}
		if ent.flags&memoEnd != 0 {
			bounds[0] = ent.vt[2]
			e.VT.End = &bounds[0]
		}
	}
	if n := ent.nInv + ent.nVar; n > 0 {
		vals := p.vals.take(int(n), left)
		b.values(vals, b.vals[ent.vals:ent.vals+n])
		if ent.nInv > 0 {
			e.Invariant = vals[:ent.nInv:ent.nInv]
		}
		if ent.nVar > 0 {
			e.Varying = vals[ent.nInv:]
		}
	}
	if ent.nInv == 0 && ent.flags&memoInvariant != 0 {
		e.Invariant = []Value{}
	}
	if ent.nVar == 0 && ent.flags&memoVarying != 0 {
		e.Varying = []Value{}
	}
	if ent.nUser > 0 {
		e.UserTimes = p.ints.take(int(ent.nUser), left)
		copy(e.UserTimes, b.ints[ent.ints:ent.ints+ent.nUser])
	} else if ent.flags&memoUserTimes != 0 {
		e.UserTimes = []int64{}
	}
}

// values writes the remembered values mvs into out.
func (b *memoBatch) values(out []Value, mvs []memoValue) {
	for j := range mvs {
		mv, v := &mvs[j], &out[j]
		if mv.kind == memoOtherKind {
			v.Kind = b.text[mv.kindAt:mv.kindEnd]
		} else {
			v.Kind = words[mv.kind]
		}
		if mv.strEnd > mv.str {
			v.Str = b.text[mv.str:mv.strEnd]
		}
		v.Int, v.Float, v.Bool, v.Time = mv.i, mv.f, mv.b != 0, mv.t
	}
}

// copier copies answers into two slabs of its own, sized to the byte: every
// pointer and slice of a copy is fresh, the strings are shared.
type copier struct {
	ints slab[int64]
	vals slab[Value]
}

// newCopier is a copier whose slabs hold ints and vals items.
func newCopier(ints, vals int) copier {
	return copier{ints: slab[int64]{buf: make([]int64, 0, ints), per: 1}, vals: slab[Value]{buf: make([]Value, 0, vals), per: 1}}
}

// element makes dst a copy of src.
func (c *copier) element(dst, src *Element) {
	// Field by field: a pointer copied whole and then replaced would pass
	// the write barrier twice.
	dst.ES, dst.OS, dst.TTStart, dst.TTEnd, dst.Current = src.ES, src.OS, src.TTStart, src.TTEnd, src.Current
	dst.VT.Event, dst.VT.Start, dst.VT.End = c.ptr(src.VT.Event), c.ptr(src.VT.Start), c.ptr(src.VT.End)
	dst.Invariant = c.values(src.Invariant)
	dst.Varying = c.values(src.Varying)
	if len(src.UserTimes) > 0 {
		dst.UserTimes = c.ints.take(len(src.UserTimes), 0)
		copy(dst.UserTimes, src.UserTimes)
	} else if src.UserTimes != nil {
		dst.UserTimes = []int64{}
	}
}

func (c *copier) ptr(p *int64) *int64 {
	if p == nil {
		return nil
	}
	q := c.ints.one(0)
	*q = *p
	return q
}

// values copies a list, nil as nil and empty as empty.
func (c *copier) values(vs []Value) []Value {
	switch {
	case vs == nil:
		return nil
	case len(vs) == 0:
		return []Value{}
	}
	out := c.vals.take(len(vs), 0)
	copy(out, vs)
	return out
}

// clone copies a plan tree, window bounds included.
func (n *PlanNode) clone() *PlanNode {
	if n == nil {
		return nil
	}
	c := *n
	if n.WinLo != nil {
		lo := *n.WinLo
		c.WinLo = &lo
	}
	if n.WinHi != nil {
		hi := *n.WinHi
		c.WinHi = &hi
	}
	c.Input = n.Input.clone()
	return &c
}

// Clone returns a copy of r that shares nothing a caller can change with r:
// the elements, their time-stamp pointers, attribute lists and user times,
// and the plan tree are fresh; strings, immutable, are shared.
func (r QueryResponse) Clone() QueryResponse {
	ints, vals := 0, 0
	for i := range r.Elements {
		e := &r.Elements[i]
		ints += len(e.UserTimes)
		for _, ptr := range [3]*int64{e.VT.Event, e.VT.Start, e.VT.End} {
			if ptr != nil {
				ints++
			}
		}
		vals += len(e.Invariant) + len(e.Varying)
	}
	out := r
	if r.Elements != nil {
		cp := newCopier(ints, vals)
		out.Elements = make([]Element, len(r.Elements))
		for i := range r.Elements {
			cp.element(&out.Elements[i], &r.Elements[i])
		}
	}
	out.PlanNode = r.PlanNode.clone()
	return out
}

// Clone returns a copy of r that shares nothing a caller can change with r:
// the column list, the rows and the plan tree are fresh; strings are shared.
func (r SelectResponse) Clone() SelectResponse {
	vals := 0
	for _, row := range r.Rows {
		vals += len(row)
	}
	out := r
	if r.Columns != nil {
		out.Columns = append([]string{}, r.Columns...)
	}
	if r.Rows != nil {
		cp := newCopier(0, vals)
		out.Rows = make([][]Value, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = cp.values(row)
		}
	}
	out.Plan = r.Plan.clone()
	return out
}
