package wire

// Parse once (DESIGN §15): the element memo and the copier it shares with
// the client's cached answers.

import (
	"strings"
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
// What the memo holds it holds privately: a miss is remembered as a deep
// copy, and a hit hands out a copy in the answer's own slabs — time-stamp
// pointers, attribute lists and user times are fresh, only strings, being
// immutable, are shared. The memory it keeps is counted and bounded by Max
// in two generations: new entries go into the young one, which becomes the
// old one, the old one dropped, when it would pass Max/2; an element found
// in the old generation is copied into the young one. The zero value
// remembers nothing. Its methods are safe for concurrent use; concurrent
// parses look up concurrently and take the write lock once each, after
// parsing, to enter what they learned.
type ElementMemo struct {
	// Max is the most bytes the memo keeps, its index included. Set before
	// first use.
	Max int

	mu         sync.RWMutex
	young, old memoGen

	reused, parsed atomic.Uint64
}

// MemoStats is what an ElementMemo has done: the elements copied from it
// and the elements parsed through it, over every answer it accepted, and
// the bytes it holds now.
type MemoStats struct {
	Reused, Parsed uint64
	Bytes          int
}

// Stats reports the memo's counters.
func (m *ElementMemo) Stats() MemoStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MemoStats{Reused: m.reused.Load(), Parsed: m.parsed.Load(), Bytes: m.young.bytes + m.old.bytes}
}

type memoEntry struct {
	raw string  // the element's encoding, `{` to `}`
	el  Element // its parse; pointers and slices are the memo's own
	gen uint64  // the generation it was entered in
	// next is the entry learnt after this one from the same answer: where an
	// answer repeats an earlier one, the element after this one.
	next *memoEntry
}

// memoGen is one generation: its index and the bytes of the batches it
// keeps alive. The index is by element surrogate, what an element's
// encoding starts with — a hint: the bytes decide.
type memoGen struct {
	index map[uint64]*memoEntry
	bytes int
	id    uint64
}

// memoIndexBytes is what an entry is counted for its place in a map: the
// key, a pointer, the control byte, and the slack of a table that
// grows by doubling.
const memoIndexBytes = 64

// memoSpan is an element of the answer being parsed that the memo should
// learn: src[start:end], parsed into the answer's idx-th element.
type memoSpan struct{ start, end, idx int }

// find returns the entry for surrogate es whose bytes src begins with, and
// whether it is in the old generation. The entry after last, the one found
// for the element before, is tried before the index. The caller holds the
// read lock.
func (m *ElementMemo) find(es uint64, src []byte, last *memoEntry) (*memoEntry, bool) {
	if last != nil {
		if e := last.next; e != nil && e.el.ES == es && (e.gen == m.young.id || e.gen == m.old.id) && hasPrefix(src, e.raw) {
			return e, e.gen != m.young.id
		}
	}
	if e := m.young.index[es]; e != nil && hasPrefix(src, e.raw) {
		return e, false
	}
	if e := m.old.index[es]; e != nil && hasPrefix(src, e.raw) {
		return e, true
	}
	return nil, false
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
	m.learn(src, r.Elements, p.pending)
	return nil
}

// learn copies the spans' elements into one batch of the memo's own memory
// and enters them in the young generation. A batch is as many spans, from
// the first, as half the budget holds; a young generation it would take
// past that becomes the old one first.
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
			}
		}
		for _, ptr := range [3]*int64{e.VT.Event, e.VT.Start, e.VT.End} {
			if ptr != nil {
				k++
			}
		}
		c := t + v*int(unsafe.Sizeof(Value{})) + k*8 + int(unsafe.Sizeof(memoEntry{})) + memoIndexBytes
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
	batch := make([]memoEntry, n)
	cp := exactCopier(ints, vals)
	var b strings.Builder
	b.Grow(text)
	for i, s := range spans[:n] {
		ent := &batch[i]
		b.Write(src[s.start:s.end])
		ent.raw = b.String()[b.Len()-(s.end-s.start):]
		cp.element(&ent.el, &els[s.idx], 0)
		if i+1 < n {
			ent.next = &batch[i+1]
		}
		for _, vs := range [2][]Value{ent.el.Invariant, ent.el.Varying} {
			for j := range vs {
				if str := vs[j].Str; str != "" {
					b.WriteString(str)
					vs[j].Str = b.String()[b.Len()-len(str):]
				}
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.young.bytes+size > half {
		m.old, m.young = m.young, memoGen{id: m.young.id + 1}
	}
	if m.young.index == nil {
		m.young.index = make(map[uint64]*memoEntry, n)
	}
	for i := range batch {
		ent := &batch[i]
		ent.gen = m.young.id
		m.young.index[ent.el.ES] = ent
	}
	m.young.bytes += size
}

// copier copies answers into slabs of its own: every pointer and slice of a
// copy is fresh, the strings are shared. The parser copies a remembered
// element with its slabs; the memo and Clone copy with slabs sized to the
// byte.
type copier struct {
	ints slab[int64]
	vals slab[Value]
}

// element makes dst a copy of src. left is the parser's unread input, which
// bounds a new chunk; the exact-size copiers never need one.
func (c *copier) element(dst, src *Element, left int) {
	// Field by field: a pointer copied whole and then replaced would pass
	// the write barrier twice.
	dst.ES, dst.OS, dst.TTStart, dst.TTEnd, dst.Current = src.ES, src.OS, src.TTStart, src.TTEnd, src.Current
	dst.VT.Event, dst.VT.Start, dst.VT.End = c.ptr(src.VT.Event, left), c.ptr(src.VT.Start, left), c.ptr(src.VT.End, left)
	dst.Invariant = c.values(src.Invariant, left)
	dst.Varying = c.values(src.Varying, left)
	if len(src.UserTimes) > 0 {
		dst.UserTimes = c.ints.take(len(src.UserTimes), left)
		copy(dst.UserTimes, src.UserTimes)
	} else if src.UserTimes != nil {
		dst.UserTimes = []int64{}
	}
}

func (c *copier) ptr(p *int64, left int) *int64 {
	if p == nil {
		return nil
	}
	q := c.ints.one(left)
	*q = *p
	return q
}

// values copies a list, nil as nil and empty as empty.
func (c *copier) values(vs []Value, left int) []Value {
	switch {
	case vs == nil:
		return nil
	case len(vs) == 0:
		return []Value{}
	}
	out := c.vals.take(len(vs), left)
	copy(out, vs)
	return out
}

// exactCopier is a copier whose slabs hold ints and vals items.
func exactCopier(ints, vals int) copier {
	return copier{ints: slab[int64]{buf: make([]int64, 0, ints), per: 1}, vals: slab[Value]{buf: make([]Value, 0, vals), per: 1}}
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
		cp := exactCopier(ints, vals)
		out.Elements = make([]Element, len(r.Elements))
		for i := range r.Elements {
			cp.element(&out.Elements[i], &r.Elements[i], 0)
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
		cp := exactCopier(0, vals)
		out.Rows = make([][]Value, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = cp.values(row, 0)
		}
	}
	out.Plan = r.Plan.clone()
	return out
}
